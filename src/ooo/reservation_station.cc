#include "src/ooo/reservation_station.h"

namespace kvd {

ReservationStation::ReservationStation(const OooConfig& config)
    : config_(config), slots_(config.station_slots) {
  KVD_CHECK(config.station_slots > 0);
  KVD_CHECK(config.max_inflight > 0);
}

void ReservationStation::NoteInflight(int delta) {
  if (delta > 0) {
    inflight_ += static_cast<uint32_t>(delta);
    if (inflight_ > stats_.peak_inflight) {
      stats_.peak_inflight = inflight_;
    }
  } else {
    KVD_CHECK(inflight_ >= static_cast<uint32_t>(-delta));
    inflight_ -= static_cast<uint32_t>(-delta);
  }
}

ReservationStation::Action ReservationStation::Admit(uint64_t op_id, uint16_t slot_idx,
                                                     uint64_t key_digest,
                                                     bool is_write) {
  KVD_DCHECK(slot_idx < slots_.size());
  Slot& slot = slots_[slot_idx];

  if (slot.state == SlotState::kIdle) {
    if (inflight_ >= config_.max_inflight) {
      stats_.rejected_full++;
      return Action::kRejectFull;
    }
    slot.state = !config_.enable_out_of_order && !is_write
                     ? SlotState::kPipelineShared
                     : SlotState::kPipeline;
    slot.shared_readers = slot.state == SlotState::kPipelineShared ? 1 : 0;
    slot.digest = key_digest;
    slot.dirty = false;
    slot.writeback_inflight = false;
    NoteInflight(1);
    stats_.issued_to_pipeline++;
    return Action::kIssueToPipeline;
  }

  // Stall mode: additional reads join an all-reader slot in parallel — the
  // strawman pipeline only stalls when a PUT is involved (paper §5.1.3).
  if (!config_.enable_out_of_order && slot.state == SlotState::kPipelineShared &&
      !is_write && slot.parked.empty()) {
    if (inflight_ >= config_.max_inflight) {
      stats_.rejected_full++;
      return Action::kRejectFull;
    }
    slot.shared_readers++;
    NoteInflight(1);
    stats_.issued_to_pipeline++;
    return Action::kIssueToPipeline;
  }

  // Data forwarding: the value for this exact key is cached in the station,
  // so the operation retires in one clock cycle without touching memory.
  // Parked entries for *different* keys are false-positive dependencies and
  // carry no ordering constraint against this key; only a parked same-key
  // operation forces this one to queue behind it.
  if (config_.enable_out_of_order && slot.state == SlotState::kCached &&
      slot.digest == key_digest) {
    bool same_key_parked = false;
    for (size_t i = 0; i < slot.parked.size(); i++) {
      if (slot.parked[i].key_digest == key_digest) {
        same_key_parked = true;
        break;
      }
    }
    if (!same_key_parked) {
      if (is_write) {
        slot.dirty = true;
      }
      stats_.fast_path_ops++;
      return Action::kFastPath;
    }
  }

  // Conflict eviction: a *different* key claims a quiescent, clean cached
  // slot — the BRAM entry is evicted and the newcomer issues directly. (The
  // hardware keeps cached values until exactly this kind of conflict.)
  if (slot.state == SlotState::kCached && slot.digest != key_digest &&
      slot.parked.empty() && !slot.dirty && !slot.writeback_inflight) {
    if (inflight_ >= config_.max_inflight) {
      stats_.rejected_full++;
      return Action::kRejectFull;
    }
    slot.state = !config_.enable_out_of_order && !is_write
                     ? SlotState::kPipelineShared
                     : SlotState::kPipeline;
    slot.shared_readers = slot.state == SlotState::kPipelineShared ? 1 : 0;
    slot.digest = key_digest;
    NoteInflight(1);
    stats_.issued_to_pipeline++;
    return Action::kIssueToPipeline;
  }

  // Hazard (same key in flight, or a same-slot false positive): park.
  if (inflight_ >= config_.max_inflight) {
    stats_.rejected_full++;
    return Action::kRejectFull;
  }
  slot.parked.push_back(Parked{op_id, key_digest, is_write});
  NoteInflight(1);
  stats_.parked++;
  return Action::kPark;
}

void ReservationStation::CompletePipeline(uint16_t slot_idx,
                                          std::vector<uint64_t>& fast_path) {
  fast_path.clear();
  Slot& slot = slots_[slot_idx];
  if (slot.state == SlotState::kPipelineShared) {
    KVD_CHECK(slot.shared_readers > 0);
    slot.shared_readers--;
    NoteInflight(-1);
    if (slot.shared_readers == 0) {
      slot.state = SlotState::kCached;
    }
    return;  // while other reads are in flight the slot stays shared
  }
  KVD_CHECK(slot.state == SlotState::kPipeline);
  slot.state = SlotState::kCached;
  NoteInflight(-1);

  if (!config_.enable_out_of_order) {
    // Strawman: no forwarding; parked operations re-issue one at a time via
    // TryIssueNext, paying full latency each.
    return;
  }
  // Scan the whole chain and forward every matching-key operation from the
  // cached value ("operations with matching key are executed immediately and
  // removed", §3.3.3). Different-key entries are false positives with no
  // ordering constraint against this key; they keep their relative order.
  slot.parked.RemoveIf([&](const Parked& parked) {
    if (parked.key_digest != slot.digest) {
      return false;
    }
    if (parked.is_write) {
      slot.dirty = true;
    }
    fast_path.push_back(parked.op_id);
    NoteInflight(-1);
    stats_.fast_path_ops++;
    return true;
  });
}

bool ReservationStation::NeedsWriteback(uint16_t slot_idx) const {
  const Slot& slot = slots_[slot_idx];
  return slot.state == SlotState::kCached && slot.dirty && !slot.writeback_inflight;
}

void ReservationStation::BeginWriteback(uint16_t slot_idx) {
  Slot& slot = slots_[slot_idx];
  KVD_CHECK(NeedsWriteback(slot_idx));
  slot.dirty = false;
  slot.writeback_inflight = true;
  stats_.writebacks++;
}

void ReservationStation::CompleteWriteback(uint16_t slot_idx) {
  Slot& slot = slots_[slot_idx];
  KVD_CHECK(slot.writeback_inflight);
  slot.writeback_inflight = false;
}

std::optional<uint64_t> ReservationStation::TryIssueNext(uint16_t slot_idx) {
  Slot& slot = slots_[slot_idx];
  if (slot.state != SlotState::kCached || slot.dirty || slot.writeback_inflight) {
    return std::nullopt;
  }
  if (slot.parked.empty()) {
    // Quiescent and clean: the cached value stays resident for future
    // same-key fast paths; a different key evicts it at Admit time.
    return std::nullopt;
  }
  const Parked next = slot.parked.front();
  slot.parked.pop_front();
  // The parked operation now owns the slot's pipeline presence; the inflight
  // count is unchanged (parked -> pipeline).
  slot.state = !config_.enable_out_of_order && !next.is_write
                   ? SlotState::kPipelineShared
                   : SlotState::kPipeline;
  slot.shared_readers = slot.state == SlotState::kPipelineShared ? 1 : 0;
  slot.digest = next.key_digest;
  slot.dirty = false;
  stats_.issued_to_pipeline++;
  return next.op_id;
}

bool ReservationStation::SlotIdle(uint16_t slot_idx) const {
  return slots_[slot_idx].state == SlotState::kIdle;
}

size_t ReservationStation::ParkedCount(uint16_t slot_idx) const {
  return slots_[slot_idx].parked.size();
}

void ReservationStation::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_station_issued_total",
                           "Operations issued to the main pipeline", {},
                           &stats_.issued_to_pipeline);
  registry.RegisterCounter("kvd_station_parked_total",
                           "Operations parked behind a slot hazard", {},
                           &stats_.parked);
  registry.RegisterCounter("kvd_station_fast_path_total",
                           "Operations retired via data forwarding", {},
                           &stats_.fast_path_ops);
  registry.RegisterCounter("kvd_station_rejected_full_total",
                           "Admissions rejected at capacity", {},
                           &stats_.rejected_full);
  registry.RegisterCounter("kvd_station_writebacks_total",
                           "Dirty cached values written back", {},
                           &stats_.writebacks);
  registry.RegisterGauge("kvd_station_inflight", "Operations currently in flight",
                         {}, [this] { return static_cast<double>(inflight_); });
  registry.RegisterGauge("kvd_station_peak_inflight", "Peak in-flight operations",
                         {},
                         [this] { return static_cast<double>(stats_.peak_inflight); });
}

}  // namespace kvd
