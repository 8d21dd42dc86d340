#include "sim/path.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/traffic.hpp"

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

Path::Path(Simulator& sim, std::vector<HopSpec> hops) : sim_{sim} {
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
    links_[i]->set_downstream(junctions_[i].get());
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

namespace {

/// Heap order with the earliest event on top.
struct Later {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return b.key < a.key;
  }
};

/// Restore the heap [first, last) after its top's key grew.
template <typename It>
void sift_down(It first, It last) {
  const auto n = last - first;
  const auto top = *first;
  decltype(last - first) i = 0;
  for (;;) {
    auto child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n) child += first[child + 1].key < first[child].key ? 1 : 0;
    if (!(first[child].key < top.key)) break;
    first[i] = first[child];
    i = child;
  }
  first[i] = top;
}

}  // namespace

void Path::update(Lane& lane) const {
  lane.next = ~EventKey{0};
  lane.service = false;
  if (lane.begin < lane.end) lane.next = heap_[lane.begin].key;
  const Link& l = *lane.link;
  if (l.busy_) {
    const EventKey service = event_key(l.service_at_, l.service_ticket_);
    if (service < lane.next) {
      lane.next = service;
      lane.service = true;
    }
  }
}

bool Path::run_cross_traffic_until(TimePoint t) {
  if (t < sim_.now()) return false;
  // Precondition: the owners' armed timers account for every pending event.
  std::size_t armed = 0;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const Link& l = *links_[i];
    if (!l.holds_only_local(junctions_[i].get())) return false;
    armed += l.armed_timers();
    for (const CrossTrafficSource* s : l.sources_) {
      if (s->timer_.pending()) ++armed;
    }
  }
  if (armed != sim_.pending_events()) return false;

  // Take the timers over: from here until `t` the loop is the scheduler.
  lanes_.clear();
  heap_.clear();
  for (const auto& link : links_) {
    Lane lane{0, link.get(), heap_.size(), 0, false};
    for (CrossTrafficSource* s : link->sources_) {
      if (!s->timer_.pending()) continue;
      s->timer_.cancel();
      heap_.push_back(Emission{event_key(s->next_at_, s->next_ticket_), s});
    }
    lane.end = heap_.size();
    std::make_heap(heap_.begin() + static_cast<std::ptrdiff_t>(lane.begin), heap_.end(),
                   Later{});
    link->hold_timers();
    update(lane);
    lanes_.push_back(lane);
  }

  // The last key at `t`: every event at or before `t` runs, as in run_until.
  const EventKey end = event_key(t, ~std::uint64_t{0});
  std::uint64_t deliveries = 0;
  for (;;) {
    Lane* next = &lanes_.front();
    for (Lane& lane : lanes_) {
      if (lane.next < next->next) next = &lane;
    }
    if (next->next > end) break;
    const TimePoint at = TimePoint::from_nanos(static_cast<std::int64_t>(next->next >> 64));
    sim_.fast_forward(at, 1);
    Link& link = *next->link;
    if (next->service) {
      // Deliveries due by now ran nothing; retiring them here keeps the
      // delay line at its event-driven length.
      deliveries += link.retire_deliveries(at.nanos());
      link.complete_service();
    } else {
      Emission& top = heap_[next->begin];
      CrossTrafficSource& s = *top.source;
      const Packet p = s.make_packet();
      link.enqueue(p);
      s.sent(p);
      top.key = event_key(s.next_at_, s.next_ticket_);
      sift_down(heap_.begin() + static_cast<std::ptrdiff_t>(next->begin),
                heap_.begin() + static_cast<std::ptrdiff_t>(next->end));
    }
    update(*next);
  }
  for (const auto& link : links_) deliveries += link->retire_deliveries(t.nanos());
  sim_.fast_forward(t, deliveries);

  for (const auto& link : links_) link->rearm_timers();
  for (const Emission& e : heap_) e.source->arm();
  return true;
}

}  // namespace pathload::sim
