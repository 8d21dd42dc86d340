#include "sim/path.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pathload::sim {

void FlowDemux::register_flow(std::uint32_t flow, PacketHandler* handler) {
  handlers_[flow] = handler;
}

void FlowDemux::unregister_flow(std::uint32_t flow) { handlers_.erase(flow); }

void FlowDemux::handle(const Packet& p) {
  auto it = handlers_.find(p.flow);
  if (it != handlers_.end()) {
    it->second->handle(p);
  } else {
    ++unclaimed_;
  }
}

Path::Path(Simulator& sim, std::vector<HopSpec> hops) {
  if (hops.empty()) {
    throw std::invalid_argument{"Path needs at least one hop"};
  }
  links_.reserve(hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    links_.push_back(std::make_unique<Link>(sim, "link" + std::to_string(i),
                                            hops[i].capacity, hops[i].prop_delay,
                                            hops[i].buffer_limit));
  }
  junctions_.reserve(hops.size());
  for (std::size_t i = 0; i < hops.size(); ++i) {
    PacketHandler* next =
        (i + 1 < hops.size()) ? static_cast<PacketHandler*>(links_[i + 1].get())
                              : static_cast<PacketHandler*>(&egress_);
    junctions_.push_back(
        std::make_unique<Junction>(static_cast<std::uint32_t>(i), next));
    links_[i]->set_downstream(junctions_[i].get(), /*drops_hop_local=*/true);
  }
}

Segment Path::normalized(Segment s) const {
  if (s.last == Segment::kPathEnd) s.last = links_.size() - 1;
  if (s.first > s.last || s.last >= links_.size()) {
    throw std::out_of_range{"Path: segment [" + std::to_string(s.first) + ", " +
                            std::to_string(s.last) + "] does not fit a " +
                            std::to_string(links_.size()) + "-hop path"};
  }
  return s;
}

FlowDemux& Path::segment_exit(Segment s) {
  s = normalized(s);
  if (s.last + 1 == links_.size()) return egress_;
  return junctions_[s.last]->exits();
}

std::uint32_t Path::exit_hop_value(Segment s) const {
  s = normalized(s);
  if (s.last + 1 == links_.size()) return kExitAtEgress;
  return static_cast<std::uint32_t>(s.last);
}

Rate Path::capacity() const {
  Rate min_cap = links_.front()->capacity();
  for (const auto& l : links_) min_cap = std::min(min_cap, l->capacity());
  return min_cap;
}

std::size_t Path::narrow_index() const {
  std::size_t idx = 0;
  for (std::size_t i = 1; i < links_.size(); ++i) {
    if (links_[i]->capacity() < links_[idx]->capacity()) idx = i;
  }
  return idx;
}

Duration Path::base_delay() const {
  Duration d = Duration::zero();
  for (const auto& l : links_) d += l->prop_delay();
  return d;
}

Duration Path::unloaded_transit_time(DataSize size) const {
  Duration d = base_delay();
  for (const auto& l : links_) d += l->capacity().transmission_time(size);
  return d;
}

}  // namespace pathload::sim
