#include "src/hash/hash_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace kvd {
namespace {

// One logical entry while scanning a bucket.
struct ParsedEntry {
  uint32_t slot;
  uint32_t span;  // slots occupied
  bool is_inline;
  uint8_t klen = 0;  // inline only
  uint8_t vlen = 0;  // inline only
};

// A bucket holds at most one entry per slot, so parsing needs no heap.
struct ParsedEntries {
  std::array<ParsedEntry, kSlotsPerBucket> items;
  uint32_t count = 0;

  const ParsedEntry* begin() const { return items.data(); }
  const ParsedEntry* end() const { return items.data() + count; }
  void push_back(const ParsedEntry& entry) { items[count++] = entry; }
};

ParsedEntries ParseEntries(const BucketView& bucket) {
  ParsedEntries entries;
  uint32_t slot = 0;
  while (slot < kSlotsPerBucket) {
    const uint8_t type = bucket.SlotType(slot);
    if (type == kSlotEmpty) {
      slot++;
      continue;
    }
    if (type == kSlotInline) {
      KVD_CHECK_MSG(bucket.InlineBegin(slot), "inline slot without begin mark");
      uint8_t header[kInlineHeaderBytes];
      bucket.ReadInlineBytes(slot, std::span<uint8_t>(header, kInlineHeaderBytes));
      ParsedEntry entry;
      entry.slot = slot;
      entry.is_inline = true;
      entry.klen = header[0];
      entry.vlen = header[1];
      entry.span = BucketView::InlineSlotSpan(entry.klen + entry.vlen);
      entries.push_back(entry);
      slot += entry.span;
    } else {
      entries.push_back(ParsedEntry{slot, 1, false, 0, 0});
      slot++;
    }
  }
  return entries;
}

}  // namespace

HashIndexConfig::Regions HashIndexConfig::ComputeRegions() const {
  KVD_CHECK(memory_size > 0);
  KVD_CHECK(hash_index_ratio > 0.0 && hash_index_ratio < 1.0);
  Regions regions;
  regions.index_base = memory_base;
  regions.num_buckets = static_cast<uint64_t>(
      static_cast<double>(memory_size) * hash_index_ratio / kBucketBytes);
  KVD_CHECK_MSG(regions.num_buckets > 0, "hash index ratio leaves no buckets");
  uint64_t heap_base = memory_base + regions.num_buckets * kBucketBytes;
  // Align the heap so buddy addresses stay aligned to their slab size.
  const uint64_t align = max_slab_bytes;
  heap_base = (heap_base + align - 1) / align * align;
  const uint64_t end = memory_base + memory_size;
  KVD_CHECK_MSG(heap_base < end, "hash index ratio leaves no heap");
  regions.heap_base = heap_base;
  regions.heap_size = (end - heap_base) / align * align;
  return regions;
}

HashIndex::HashIndex(AccessEngine& engine, Allocator& allocator,
                     const HashIndexConfig& config)
    : engine_(engine), allocator_(allocator), config_(config) {
  const auto regions = config.ComputeRegions();
  index_base_ = regions.index_base;
  num_buckets_ = regions.num_buckets;
  KVD_CHECK(config.inline_threshold_bytes <= kMaxInlineKvBytes);
  // The 3-bit slot type field encodes at most kMaxSlabClasses slab classes
  // (Figure 5); a wider class range would corrupt pointer slots.
  const auto num_classes = static_cast<uint32_t>(
      std::countr_zero(config.max_slab_bytes) - std::countr_zero(config.min_slab_bytes) +
      1);
  KVD_CHECK_MSG(num_classes <= kMaxSlabClasses,
                "min/max slab span exceeds the 3-bit slot type field");
}

uint8_t HashIndex::SlabClassFor(uint32_t slab_bytes) const {
  const uint32_t rounded = std::max(std::bit_ceil(slab_bytes), config_.min_slab_bytes);
  return static_cast<uint8_t>(std::countr_zero(rounded) -
                              std::countr_zero(config_.min_slab_bytes));
}

BucketView HashIndex::ReadBucket(uint64_t address) {
  uint8_t raw[kBucketBytes];
  engine_.Read(address, raw);
  return BucketView(raw);
}

void HashIndex::WriteBucket(uint64_t address, const BucketView& bucket) {
  engine_.Write(address, bucket.raw());
}

std::span<const uint8_t> HashIndex::SlabImage(std::span<const uint8_t> key,
                                              std::span<const uint8_t> value) {
  image_.resize(kSlabHeaderBytes + key.size() + value.size());
  const auto klen = static_cast<uint16_t>(key.size());
  const auto vlen = static_cast<uint16_t>(value.size());
  std::memcpy(image_.data(), &klen, 2);
  std::memcpy(image_.data() + 2, &vlen, 2);
  std::memcpy(image_.data() + kSlabHeaderBytes, key.data(), key.size());
  if (!value.empty()) {  // an empty span's data() may be null
    std::memcpy(image_.data() + kSlabHeaderBytes + key.size(), value.data(),
                value.size());
  }
  return image_;
}

std::span<const uint8_t> HashIndex::InlineImage(std::span<const uint8_t> key,
                                                std::span<const uint8_t> value) {
  image_.resize(kInlineHeaderBytes + key.size() + value.size());
  image_[0] = static_cast<uint8_t>(key.size());
  image_[1] = static_cast<uint8_t>(value.size());
  std::memcpy(image_.data() + kInlineHeaderBytes, key.data(), key.size());
  if (!value.empty()) {  // an empty span's data() may be null
    std::memcpy(image_.data() + kInlineHeaderBytes + key.size(), value.data(),
                value.size());
  }
  return image_;
}

std::optional<uint32_t> HashIndex::ReadSlabKv(const PointerSlot& pointer,
                                              std::span<const uint8_t> key,
                                              std::vector<uint8_t>* value_out) {
  const uint32_t slab_bytes = config_.min_slab_bytes << pointer.slab_class;
  uint8_t small[kMaxPaperSlabBytes] = {};
  std::span<uint8_t> slab;
  if (slab_bytes <= kMaxPaperSlabBytes) {
    // Paper-sized slabs (32..512 B): fetch the whole class in one DMA, so a
    // non-inline GET costs exactly bucket + KV = 2 accesses (§3.3.1).
    slab = std::span<uint8_t>(small, slab_bytes);
    engine_.Read(pointer.address, slab);
  } else {
    // Large slabs (the vector extension): internal fragmentation can waste
    // half the class, so read the first line for the length header, then
    // exactly the remaining payload.
    large_slab_.resize(slab_bytes);
    slab = large_slab_;
    engine_.Read(pointer.address, std::span<uint8_t>(slab.data(), 64));
    uint16_t k;
    uint16_t v;
    std::memcpy(&k, slab.data(), 2);
    std::memcpy(&v, slab.data() + 2, 2);
    const uint64_t total = kSlabHeaderBytes + static_cast<uint64_t>(k) + v;
    if (total > 64 && total <= slab_bytes) {
      engine_.Read(pointer.address + 64,
                   std::span<uint8_t>(slab.data() + 64, total - 64));
    }
  }
  uint16_t klen;
  uint16_t vlen;
  std::memcpy(&klen, slab.data(), 2);
  std::memcpy(&vlen, slab.data() + 2, 2);
  if (klen != key.size() ||
      std::memcmp(slab.data() + kSlabHeaderBytes, key.data(), klen) != 0) {
    stats_.secondary_false_hits++;
    return std::nullopt;
  }
  if (value_out != nullptr) {
    value_out->assign(slab.begin() + kSlabHeaderBytes + klen,
                      slab.begin() + kSlabHeaderBytes + klen + vlen);
  }
  return vlen;
}

std::optional<HashIndex::Location> HashIndex::Find(std::span<const uint8_t> key,
                                                   const KeyHash& kh,
                                                   std::vector<uint8_t>* value_out,
                                                   std::vector<WalkedBucket>* walked) {
  uint64_t address = index_base_ + kh.BucketIndex(num_buckets_) * kBucketBytes;
  uint64_t parent = kNoParent;
  bool first = true;
  while (true) {
    BucketView bucket = ReadBucket(address);
    if (walked != nullptr) {
      walked->push_back(WalkedBucket{address, bucket});
    }
    if (!first) {
      stats_.chain_follows++;
    }
    first = false;
    for (const ParsedEntry& entry : ParseEntries(bucket)) {
      if (entry.is_inline) {
        if (entry.klen != key.size()) {
          continue;
        }
        uint8_t data[kInlineHeaderBytes + kMaxInlineKvBytes] = {};
        const uint32_t len = kInlineHeaderBytes + entry.klen + entry.vlen;
        KVD_CHECK_MSG(len <= sizeof(data), "inline entry overruns its bucket");
        bucket.ReadInlineBytes(entry.slot, std::span<uint8_t>(data, len));
        if (std::memcmp(data + kInlineHeaderBytes, key.data(), entry.klen) != 0) {
          continue;
        }
        if (value_out != nullptr) {
          value_out->assign(data + kInlineHeaderBytes + entry.klen, data + len);
        }
        Location loc;
        loc.bucket_address = address;
        loc.bucket = bucket;
        loc.slot = entry.slot;
        loc.is_inline = true;
        loc.kv_bytes = static_cast<uint32_t>(entry.klen) + entry.vlen;
        loc.parent_address = parent;
        return loc;
      }
      const PointerSlot pointer = bucket.GetPointerSlot(entry.slot);
      if (pointer.secondary_hash != kh.SecondaryHash()) {
        continue;
      }
      if (const std::optional<uint32_t> vlen = ReadSlabKv(pointer, key, value_out)) {
        Location loc;
        loc.bucket_address = address;
        loc.bucket = bucket;
        loc.slot = entry.slot;
        loc.is_inline = false;
        loc.kv_bytes = static_cast<uint32_t>(key.size()) + *vlen;
        loc.pointer = pointer;
        loc.parent_address = parent;
        return loc;
      }
    }
    if (!bucket.HasChain()) {
      return std::nullopt;
    }
    parent = address;
    address = bucket.ChainAddress();
  }
}

Status HashIndex::Get(std::span<const uint8_t> key, const KeyHash& kh,
                      std::vector<uint8_t>& value_out) {
  stats_.gets++;
  if (Find(key, kh, &value_out).has_value()) {
    return Status::Ok();
  }
  return Status::NotFound();
}

BucketView HashIndex::Compacted(const BucketView& bucket) {
  BucketView out;
  uint32_t next = 0;
  for (const ParsedEntry& entry : ParseEntries(bucket)) {
    if (entry.is_inline) {
      const uint32_t bytes = kInlineHeaderBytes + entry.klen + entry.vlen;
      uint8_t data[kSlotsPerBucket * kSlotBytes] = {};
      KVD_CHECK_MSG(bytes <= sizeof(data), "inline entry overruns its bucket");
      bucket.ReadInlineBytes(entry.slot, std::span<uint8_t>(data, bytes));
      out.WriteInlineBytes(next, std::span<const uint8_t>(data, bytes));
      out.SetInlineBegin(next, true);
      for (uint32_t s = 0; s < entry.span; s++) {
        out.SetSlotType(next + s, kSlotInline);
      }
    } else {
      const PointerSlot pointer = bucket.GetPointerSlot(entry.slot);
      out.SetPointerSlot(next, pointer.address, pointer.secondary_hash,
                         pointer.slab_class);
    }
    next += entry.span;
  }
  if (bucket.HasChain()) {
    out.SetChain(bucket.ChainAddress());
  }
  return out;
}

bool HashIndex::TryPlace(BucketView& bucket, std::span<const uint8_t> key,
                         std::span<const uint8_t> value, bool inline_kv,
                         uint64_t slab_address, uint8_t slab_class,
                         uint16_t secondary) {
  const uint32_t needed =
      inline_kv
          ? BucketView::InlineSlotSpan(static_cast<uint32_t>(key.size() + value.size()))
          : 1;
  if (bucket.FreeSlots() < needed) {
    return false;
  }
  // Compacting packs live entries to the front, so the free slots are
  // contiguous at the tail; the rewrite costs nothing extra because a
  // mutation writes the whole 64 B bucket anyway.
  BucketView compacted = Compacted(bucket);
  const uint32_t first = kSlotsPerBucket - compacted.FreeSlots();
  if (inline_kv) {
    compacted.WriteInlineBytes(first, InlineImage(key, value));
    compacted.SetInlineBegin(first, true);
    for (uint32_t s = 0; s < needed; s++) {
      compacted.SetSlotType(first + s, kSlotInline);
    }
  } else {
    compacted.SetPointerSlot(first, slab_address, secondary, slab_class);
  }
  bucket = compacted;
  return true;
}

Status HashIndex::Insert(std::span<const uint8_t> key, const KeyHash& kh,
                         std::span<const uint8_t> value,
                         std::vector<WalkedBucket>& walked) {
  const auto kv_bytes = static_cast<uint32_t>(key.size() + value.size());
  const bool inline_kv =
      kv_bytes <= config_.inline_threshold_bytes && kv_bytes <= kMaxInlineKvBytes;

  uint64_t slab_address = 0;
  uint8_t slab_class = 0;
  if (!inline_kv) {
    const uint32_t slab_bytes = kSlabHeaderBytes + kv_bytes;
    Result<uint64_t> allocated = allocator_.Allocate(slab_bytes);
    if (!allocated.ok()) {
      return allocated.status();
    }
    slab_address = *allocated;
    slab_class = SlabClassFor(slab_bytes);
    // One DMA write for the KV body: header + key + value.
    engine_.Write(slab_address, SlabImage(key, value));
  }

  // Use the buckets the caller's Find() already read (the hardware pipeline
  // keeps them in flight); walk further only if the cache is empty or stale.
  if (walked.empty()) {
    uint64_t address = index_base_ + kh.BucketIndex(num_buckets_) * kBucketBytes;
    while (true) {
      BucketView bucket = ReadBucket(address);
      walked.push_back(WalkedBucket{address, bucket});
      if (!bucket.HasChain()) {
        break;
      }
      stats_.chain_follows++;
      address = bucket.ChainAddress();
    }
  }

  // Place into the first bucket along the chain with space.
  for (WalkedBucket& wb : walked) {
    if (TryPlace(wb.view, key, value, inline_kv, slab_address, slab_class,
                 kh.SecondaryHash())) {
      WriteBucket(wb.address, wb.view);
      num_kvs_++;
      payload_bytes_ += kv_bytes;
      return Status::Ok();
    }
  }

  // Chain a fresh bucket off the tail, allocated from the slab heap.
  Result<uint64_t> chained = allocator_.Allocate(kBucketBytes);
  if (!chained.ok()) {
    if (!inline_kv) {
      allocator_.Free(slab_address, config_.min_slab_bytes << slab_class);
    }
    return chained.status();
  }
  BucketView fresh;
  KVD_CHECK(TryPlace(fresh, key, value, inline_kv, slab_address, slab_class,
                     kh.SecondaryHash()));
  WriteBucket(*chained, fresh);
  WalkedBucket& tail = walked.back();
  tail.view.SetChain(*chained);
  WriteBucket(tail.address, tail.view);
  stats_.chained_buckets_live++;
  num_kvs_++;
  payload_bytes_ += kv_bytes;
  return Status::Ok();
}

Status HashIndex::Put(std::span<const uint8_t> key, const KeyHash& kh,
                      std::span<const uint8_t> value) {
  stats_.puts++;
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return Status::InvalidArgument("key size");
  }
  const auto kv_bytes = static_cast<uint32_t>(key.size() + value.size());
  const bool fits_inline =
      kv_bytes <= config_.inline_threshold_bytes && kv_bytes <= kMaxInlineKvBytes;
  if (!fits_inline && kSlabHeaderBytes + kv_bytes > config_.max_slab_bytes) {
    return Status::InvalidArgument("value too large for slab classes");
  }
  if (fits_inline && value.size() > 255) {
    return Status::InvalidArgument("value size");
  }

  walked_.clear();
  std::optional<Location> loc = Find(key, kh, nullptr, &walked_);
  if (!loc.has_value()) {
    return Insert(key, kh, value, walked_);
  }

  if (loc->is_inline && fits_inline &&
      BucketView::InlineSlotSpan(kv_bytes) ==
          BucketView::InlineSlotSpan(loc->kv_bytes)) {
    // Same slot span: overwrite the inline bytes, one bucket write.
    loc->bucket.WriteInlineBytes(loc->slot, InlineImage(key, value));
    WriteBucket(loc->bucket_address, loc->bucket);
    payload_bytes_ += kv_bytes;
    payload_bytes_ -= loc->kv_bytes;
    return Status::Ok();
  }

  if (!loc->is_inline && !fits_inline &&
      SlabClassFor(kSlabHeaderBytes + kv_bytes) == loc->pointer.slab_class) {
    // Same slab class: rewrite the slab body in place, bucket untouched.
    engine_.Write(loc->pointer.address, SlabImage(key, value));
    payload_bytes_ += kv_bytes;
    payload_bytes_ -= loc->kv_bytes;
    return Status::Ok();
  }

  // Shape changed (inline <-> slab, or different slab class): replace. The
  // walked buckets are stale after the removal, so Insert re-walks.
  RemoveAt(*loc);
  walked_.clear();
  return Insert(key, kh, value, walked_);
}

Status HashIndex::UpdateInPlace(std::span<const uint8_t> key, const KeyHash& kh,
                                const ValueUpdater& updater,
                                std::vector<uint8_t>* original_out) {
  std::vector<uint8_t> value;
  std::optional<Location> loc = Find(key, kh, &value);
  if (!loc.has_value()) {
    return Status::NotFound();
  }
  if (original_out != nullptr) {
    *original_out = value;
  }
  updater(value);
  KVD_CHECK_MSG(value.size() + key.size() == loc->kv_bytes,
                "UpdateInPlace must preserve value size");
  if (loc->is_inline) {
    loc->bucket.WriteInlineBytes(loc->slot, InlineImage(key, value));
    WriteBucket(loc->bucket_address, loc->bucket);
  } else {
    engine_.Write(loc->pointer.address, SlabImage(key, value));
  }
  return Status::Ok();
}

void HashIndex::RemoveAt(Location& loc) {
  if (loc.is_inline) {
    const uint32_t span = BucketView::InlineSlotSpan(loc.kv_bytes);
    for (uint32_t s = 0; s < span; s++) {
      loc.bucket.ClearSlot(loc.slot + s);
    }
  } else {
    loc.bucket.ClearSlot(loc.slot);
    allocator_.Free(loc.pointer.address,
                    config_.min_slab_bytes << loc.pointer.slab_class);
  }
  payload_bytes_ -= loc.kv_bytes;
  num_kvs_--;

  const bool now_empty = loc.bucket.FreeSlots() == kSlotsPerBucket;
  const bool is_chained_bucket = loc.parent_address != kNoParent;
  if (now_empty && is_chained_bucket) {
    // Unlink the empty chained bucket: the parent inherits its chain tail.
    BucketView parent = ReadBucket(loc.parent_address);
    if (loc.bucket.HasChain()) {
      parent.SetChain(loc.bucket.ChainAddress());
    } else {
      parent.ClearChain();
    }
    WriteBucket(loc.parent_address, parent);
    allocator_.Free(loc.bucket_address, kBucketBytes);
    stats_.chained_buckets_live--;
    return;
  }
  WriteBucket(loc.bucket_address, loc.bucket);
}

Status HashIndex::Delete(std::span<const uint8_t> key, const KeyHash& kh) {
  stats_.deletes++;
  std::optional<Location> loc = Find(key, kh);
  if (!loc.has_value()) {
    return Status::NotFound();
  }
  RemoveAt(*loc);
  return Status::Ok();
}

bool HashIndex::Contains(std::span<const uint8_t> key) {
  return Find(key, HashKey(key)).has_value();
}

std::vector<std::vector<uint8_t>> HashIndex::Keys(const HostMemory& memory) const {
  std::vector<std::vector<uint8_t>> keys;
  keys.reserve(num_kvs_);
  for (uint64_t head = 0; head < num_buckets_; head++) {
    uint64_t address = index_base_ + head * kBucketBytes;
    // Most head buckets of a sparse index are vacant: skip them uncopied.
    bool more = !BucketView::IsVacant(memory.Span(address, kBucketBytes));
    while (more) {
      const BucketView bucket(memory.Span(address, kBucketBytes));
      for (const ParsedEntry& entry : ParseEntries(bucket)) {
        std::span<const uint8_t> key;
        if (entry.is_inline) {
          key = bucket.raw().subspan(entry.slot * kSlotBytes + kInlineHeaderBytes,
                                     entry.klen);
        } else {
          const uint64_t slab = bucket.GetPointerSlot(entry.slot).address;
          uint16_t klen;
          std::memcpy(&klen, memory.Span(slab, sizeof(klen)).data(), sizeof(klen));
          key = memory.Span(slab + kSlabHeaderBytes, klen);
        }
        keys.emplace_back(key.begin(), key.end());
      }
      more = bucket.HasChain();
      address = more ? bucket.ChainAddress() : 0;
    }
  }
  KVD_CHECK_MSG(keys.size() == num_kvs_, "key walk disagrees with the KV count");
  return keys;
}

void HashIndex::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_store_gets_total", "GET operations", {},
                           &stats_.gets);
  registry.RegisterCounter("kvd_store_puts_total", "PUT operations", {},
                           &stats_.puts);
  registry.RegisterCounter("kvd_store_deletes_total", "DELETE operations", {},
                           &stats_.deletes);
  registry.RegisterCounter("kvd_store_chain_follows_total",
                           "Extra buckets read on collision chains", {},
                           &stats_.chain_follows);
  registry.RegisterCounter("kvd_store_secondary_false_hits_total",
                           "Secondary-hash matches with key mismatch", {},
                           &stats_.secondary_false_hits);
  registry.RegisterGauge("kvd_store_chained_buckets", "Live chained buckets", {},
                         [this] {
                           return static_cast<double>(stats_.chained_buckets_live);
                         });
  registry.RegisterGauge("kvd_store_kvs", "Live key-value pairs", {},
                         [this] { return static_cast<double>(num_kvs_); });
  registry.RegisterGauge("kvd_store_payload_bytes", "Stored key+value bytes", {},
                         [this] { return static_cast<double>(payload_bytes_); });
  registry.RegisterGauge("kvd_store_buckets", "Hash index buckets", {},
                         [this] { return static_cast<double>(num_buckets_); });
  registry.RegisterGauge("kvd_store_utilization",
                         "Payload bytes over KVS region size", {},
                         [this] { return Utilization(); });
}

}  // namespace kvd
