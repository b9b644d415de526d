#include "groupby/kernels.h"

#include <algorithm>
#include <cstring>

#include "common/bit_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "gpusim/atomics.h"
#include "gpusim/kernel.h"
#include "groupby/moderator.h"

namespace blusim::groupby {

using columnar::DataType;
using columnar::Decimal128;
using gpusim::AtomicAdd32;
using gpusim::AtomicAdd64;
using gpusim::AtomicAddDouble;
using gpusim::AtomicCas64;
using gpusim::AtomicMax32;
using gpusim::AtomicMax64;
using gpusim::AtomicMaxDouble;
using gpusim::AtomicMin32;
using gpusim::AtomicMin64;
using gpusim::AtomicMinDouble;
using gpusim::DeviceSpinLock;
using gpusim::KernelCtx;
using gpusim::LaunchConfig;
using runtime::AggFn;
using runtime::AggSlot;
using runtime::WideKey;

namespace {

// ---------- input value access ----------

// The staged value of row i for one slot, as its accumulator type.
struct SlotValue {
  int64_t i64 = 0;
  double f64 = 0.0;
  Decimal128 dec;
  bool valid = true;
};

SlotValue LoadSlotValue(const AggSlot& slot,
                        const DeviceInput::SlotArrays& arrays, uint64_t i) {
  SlotValue v;
  // Checked accessors: a stale row index past the staged arrays reports an
  // out-of-bounds to the device checker instead of corrupting memory.
  if (arrays.validity.valid()) {
    v.valid = arrays.validity.at<uint8_t>(i) != 0;
  }
  if (!arrays.values.valid()) return v;  // COUNT(*)
  switch (slot.acc_type) {
    case DataType::kFloat64:
      v.f64 = arrays.values.at<double>(i);
      break;
    case DataType::kDecimal128:
      v.dec = arrays.values.at<Decimal128>(i);
      break;
    default:
      v.i64 = arrays.values.at<int64_t>(i);
      break;
  }
  return v;
}

// Checked unaligned read from the fused record stream. Byte-packed records
// have no natural alignment, so this cannot go through at<T>'s typed
// indexing; the bounds check still reports to the device checker before
// returning a zero value.
template <typename T>
T FusedRead(const gpusim::DeviceBuffer& buf, uint64_t off) {
  if (off + sizeof(T) > buf.size()) {
    (void)buf.at<uint8_t>(buf.size());  // report OOB to the checker
    return T{};
  }
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  return v;
}

// The staged value of record i for one slot, read from the fused record
// stream. Values are stored at the INPUT column width (the savings over the
// SoA arrays) and widened to the accumulator type here.
SlotValue LoadFusedSlotValue(const AggSlot& slot, const FusedDeviceInput& fused,
                             size_t s, uint64_t i) {
  const FusedRecordLayout& rl = fused.layout;
  const uint64_t rec = i * static_cast<uint64_t>(rl.record_bytes);
  SlotValue v;
  const int tag_bit = rl.tag_bits[s];
  if (tag_bit >= 0) {
    const uint8_t byte = FusedRead<uint8_t>(
        fused.records,
        rec + static_cast<uint64_t>(rl.tag_offset) +
            static_cast<uint64_t>(tag_bit / 8));
    v.valid = ((byte >> (tag_bit % 8)) & 1) != 0;
  }
  if (rl.value_offsets[s] < 0) return v;  // COUNT: validity bit only
  const uint64_t off = rec + static_cast<uint64_t>(rl.value_offsets[s]);
  switch (slot.input_type) {
    case DataType::kInt32:
    case DataType::kDate:
      v.i64 = FusedRead<int32_t>(fused.records, off);
      break;
    case DataType::kInt64:
      v.i64 = FusedRead<int64_t>(fused.records, off);
      break;
    case DataType::kFloat64:
      v.f64 = FusedRead<double>(fused.records, off);
      break;
    case DataType::kDecimal128:
      v.dec = FusedRead<Decimal128>(fused.records, off);
      break;
    case DataType::kString:
      break;  // string aggregates are rejected at plan time
  }
  return v;
}

// ---------- layout-agnostic row access ----------

uint64_t KernelRows(const GroupByKernelArgs& args) {
  return args.fused ? args.fused->rows : args.input->rows;
}

uint64_t LoadRowKey(const GroupByKernelArgs& args, uint64_t i) {
  if (args.fused) {
    const FusedRecordLayout& rl = args.fused->layout;
    const uint64_t off = i * static_cast<uint64_t>(rl.record_bytes);
    // PackKey masks every component, so a 4-byte record key widens back to
    // the exact 64-bit packed key.
    if (rl.key_bytes == 4) {
      return FusedRead<uint32_t>(args.fused->records, off);
    }
    return FusedRead<uint64_t>(args.fused->records, off);
  }
  return args.input->keys.at<uint64_t>(i);
}

uint32_t LoadRowRep(const GroupByKernelArgs& args, uint64_t i) {
  // Fused records ship no row ids: the staged record index is the
  // representative and the host remaps it via host_row_ids after readback.
  if (args.fused) return static_cast<uint32_t>(i);
  return args.input->row_ids.at<uint32_t>(i);
}

SlotValue LoadRowSlot(const GroupByKernelArgs& args, size_t s, uint64_t i) {
  const AggSlot& slot = args.plan->slots()[s];
  if (args.fused) return LoadFusedSlotValue(slot, *args.fused, s, i);
  return LoadSlotValue(slot, args.input->slots[s], i);
}

// ---------- work counting ----------

// Per-block work counters of one launch. Each block runs on exactly one
// launcher worker, so its slot takes plain increments; the cache-line
// padding keeps blocks on different workers off each other's lines.
class BlockWork {
 public:
  explicit BlockWork(uint32_t grid_dim) : slots_(grid_dim) {}

  KernelWork& operator[](const KernelCtx& ctx) {
    return slots_[ctx.block_idx].work;
  }

  // Adds the launch's total to `out` (nullptr: not reported).
  void AddTo(KernelWork* out) const {
    if (out == nullptr) return;
    for (const Slot& slot : slots_) *out += slot.work;
  }

 private:
  struct alignas(64) Slot {
    KernelWork work;
  };
  std::vector<Slot> slots_;
};

// ---------- probing ----------

// First probe position of a narrow key: the paper's mod hash (section
// 4.3.1) over the finalized key. CCAT packing puts the last key column in
// the low bits, so the raw key's residue clusters multi-column keys whose
// last column has few values into a few runs of buckets.
uint64_t NarrowSlot(uint64_t key, uint64_t capacity) {
  return ModHash(Mix64(key), capacity);
}

// Finds or claims the hash-table entry for `key` via linear probing with
// atomicCAS on the key word (<= 64-bit keys, section 4.3.1). Returns the
// entry pointer or nullptr when the table is full.
char* FindOrInsertNarrow(char* table, const HashTableLayout& layout,
                         uint64_t capacity, uint64_t key, uint32_t row_id,
                         KernelWork* work) {
  uint64_t pos = NarrowSlot(key, capacity);
  for (uint64_t probes = 1; probes <= capacity; ++probes) {
    char* entry = table + pos * static_cast<uint64_t>(layout.entry_bytes());
    uint64_t* keyp = reinterpret_cast<uint64_t*>(entry);
    std::atomic_ref<uint64_t> ref(*keyp);
    uint64_t cur = ref.load(std::memory_order_acquire);
    if (cur == kEmptyKey64) {
      cur = AtomicCas64(keyp, kEmptyKey64, key);
      if (cur == kEmptyKey64) {
        // Won the claim; record the representative row (plain store: only
        // the winning thread writes it).
        *reinterpret_cast<uint32_t*>(entry + layout.rep_row_offset()) =
            row_id;
        work->probes += probes;
        return entry;
      }
      if (cur != key) ++work->cas_failures;  // lost to a different key
    }
    if (cur == key) {
      work->probes += probes;
      return entry;
    }
    pos = (pos + 1) & (capacity - 1);
  }
  work->probes += capacity;
  return nullptr;  // table full
}

// Wide-key variant: no 64-bit CAS can claim a 16-32 byte key, so each probe
// takes the entry lock to examine/claim it (section 4.3.1: "If the key size
// is larger than 64 bit ... we try to acquire a lock ... and then insert
// the key"; hashed with Murmur).
char* FindOrInsertWide(char* table, const HashTableLayout& layout,
                       uint64_t capacity, const WideKey& key,
                       uint32_t row_id, KernelWork* work) {
  uint64_t pos = Murmur3_64(key.bytes, key.len) & (capacity - 1);
  for (uint64_t probes = 1; probes <= capacity; ++probes) {
    char* entry = table + pos * static_cast<uint64_t>(layout.entry_bytes());
    uint32_t* lock =
        reinterpret_cast<uint32_t*>(entry + layout.lock_offset());
    uint32_t* rep =
        reinterpret_cast<uint32_t*>(entry + layout.rep_row_offset());
    work->lock_spins += DeviceSpinLock::Lock(lock);
    bool match = *rep == kEmptyRow;
    if (match) {
      std::memcpy(entry, key.bytes, key.len);
      *rep = row_id;
    } else {
      match = std::memcmp(entry, key.bytes, key.len) == 0;
    }
    DeviceSpinLock::Unlock(lock);
    if (match) {
      work->probes += probes;
      return entry;
    }
    pos = (pos + 1) & (capacity - 1);
  }
  work->probes += capacity;
  return nullptr;
}

// ---------- aggregation ----------

// Applies one slot's aggregate with device atomics (section 4.4 approach 1).
void UpdateSlotAtomic(const AggSlot& slot, char* slot_ptr, const SlotValue& v) {
  if (slot.fn == AggFn::kCount) {
    if (v.valid) AtomicAdd64(reinterpret_cast<int64_t*>(slot_ptr), 1);
    return;
  }
  if (!v.valid) return;
  switch (slot.acc_type) {
    case DataType::kFloat64:
      if (slot.fn == AggFn::kSum) {
        AtomicAddDouble(reinterpret_cast<double*>(slot_ptr), v.f64);
      } else if (slot.fn == AggFn::kMin) {
        AtomicMinDouble(reinterpret_cast<double*>(slot_ptr), v.f64);
      } else {
        AtomicMaxDouble(reinterpret_cast<double*>(slot_ptr), v.f64);
      }
      break;
    case DataType::kInt32:
    case DataType::kDate: {
      // 4-byte MIN/MAX slots (table 1's MIN(C3) column).
      const int32_t val = static_cast<int32_t>(v.i64);
      if (slot.fn == AggFn::kMin) {
        AtomicMin32(reinterpret_cast<int32_t*>(slot_ptr), val);
      } else if (slot.fn == AggFn::kMax) {
        AtomicMax32(reinterpret_cast<int32_t*>(slot_ptr), val);
      } else {
        AtomicAdd32(reinterpret_cast<int32_t*>(slot_ptr), val);
      }
      break;
    }
    case DataType::kDecimal128:
      BLUSIM_CHECK(false);  // lock-typed slots never take the atomic path
      break;
    default:
      if (slot.fn == AggFn::kSum) {
        AtomicAdd64(reinterpret_cast<int64_t*>(slot_ptr), v.i64);
      } else if (slot.fn == AggFn::kMin) {
        AtomicMin64(reinterpret_cast<int64_t*>(slot_ptr), v.i64);
      } else {
        AtomicMax64(reinterpret_cast<int64_t*>(slot_ptr), v.i64);
      }
      break;
  }
}

// Applies one slot's aggregate with plain (non-atomic) operations; the
// caller must hold the row lock (kernel 3, and lock-typed slots in
// kernel 1 -- section 4.4 approach 2).
void UpdateSlotPlain(const AggSlot& slot, char* slot_ptr, const SlotValue& v) {
  if (slot.fn == AggFn::kCount) {
    if (v.valid) ++*reinterpret_cast<int64_t*>(slot_ptr);
    return;
  }
  if (!v.valid) return;
  switch (slot.acc_type) {
    case DataType::kFloat64: {
      double* p = reinterpret_cast<double*>(slot_ptr);
      if (slot.fn == AggFn::kSum) *p += v.f64;
      else if (slot.fn == AggFn::kMin) *p = std::min(*p, v.f64);
      else *p = std::max(*p, v.f64);
      break;
    }
    case DataType::kDecimal128: {
      Decimal128 cur;
      std::memcpy(&cur, slot_ptr, sizeof(cur));
      if (slot.fn == AggFn::kSum) cur += v.dec;
      else if (slot.fn == AggFn::kMin) cur = std::min(cur, v.dec);
      else cur = std::max(cur, v.dec);
      std::memcpy(slot_ptr, &cur, sizeof(cur));
      break;
    }
    case DataType::kInt32:
    case DataType::kDate: {
      int32_t* p = reinterpret_cast<int32_t*>(slot_ptr);
      const int32_t val = static_cast<int32_t>(v.i64);
      if (slot.fn == AggFn::kSum) *p += val;
      else if (slot.fn == AggFn::kMin) *p = std::min(*p, val);
      else *p = std::max(*p, val);
      break;
    }
    default: {
      int64_t* p = reinterpret_cast<int64_t*>(slot_ptr);
      if (slot.fn == AggFn::kSum) *p += v.i64;
      else if (slot.fn == AggFn::kMin) *p = std::min(*p, v.i64);
      else *p = std::max(*p, v.i64);
      break;
    }
  }
}

// Aggregates row i into `entry` in the kernel-1 style: per-payload atomics,
// falling back to the entry lock for slots without atomic support.
void AggregateRowAtomic(const GroupByKernelArgs& args, char* entry,
                        uint64_t i, KernelWork* work) {
  const auto& slots = args.plan->slots();
  const HashTableLayout& layout = *args.layout;
  for (size_t s = 0; s < slots.size(); ++s) {
    const AggSlot& slot = slots[s];
    const SlotValue v = LoadRowSlot(args, s, i);
    char* slot_ptr = entry + layout.slot_offset(s);
    if (slot.lock_required) {
      uint32_t* lock =
          reinterpret_cast<uint32_t*>(entry + layout.lock_offset());
      work->lock_spins += DeviceSpinLock::Lock(lock);
      UpdateSlotPlain(slot, slot_ptr, v);
      DeviceSpinLock::Unlock(lock);
    } else {
      UpdateSlotAtomic(slot, slot_ptr, v);
    }
  }
}

char* FindOrInsert(const GroupByKernelArgs& args, uint64_t i,
                   KernelWork* work) {
  if (args.input != nullptr && args.input->wide_key) {
    const uint32_t row_id = args.input->row_ids.at<uint32_t>(i);
    const WideKey& key = args.input->keys.at<WideKey>(i);
    return FindOrInsertWide(args.table, *args.layout, args.capacity, key,
                            row_id, work);
  }
  return FindOrInsertNarrow(args.table, *args.layout, args.capacity,
                            LoadRowKey(args, i), LoadRowRep(args, i), work);
}

}  // namespace

Status InitHashTable(gpusim::SimDevice* device, const HashTableLayout& layout,
                     const runtime::GroupByPlan& plan, char* table,
                     uint64_t capacity) {
  // Parallel CUDA threads copy the mask row to every table row
  // (section 4.3.1 / table 1).
  const std::vector<char> mask = layout.BuildMask(plan);
  const uint64_t entry_bytes = static_cast<uint64_t>(layout.entry_bytes());
  LaunchConfig config = gpusim::MakeGridStrideConfig(device->spec(), capacity);
  return device->launcher().Launch(config, [&](const KernelCtx& ctx) {
    for (uint64_t e = ctx.global_thread(); e < capacity;
         e += ctx.total_threads()) {
      std::memcpy(table + e * entry_bytes, mask.data(), entry_bytes);
    }
  });
}

Status RunKernelRegular(gpusim::SimDevice* device,
                        const GroupByKernelArgs& args) {
  const uint64_t rows = KernelRows(args);
  LaunchConfig config = gpusim::MakeGridStrideConfig(device->spec(), rows);
  BlockWork work(config.grid_dim);
  const Status status =
      device->launcher().Launch(config, [&](const KernelCtx& ctx) {
        KernelWork* w = &work[ctx];
        for (uint64_t i = ctx.global_thread(); i < rows;
             i += ctx.total_threads()) {
          char* entry = FindOrInsert(args, i, w);
          if (entry == nullptr) {
            args.overflow->fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          AggregateRowAtomic(args, entry, i, w);
        }
      });
  work.AddTo(args.work);
  return status;
}

Status RunKernelRowLock(gpusim::SimDevice* device,
                        const GroupByKernelArgs& args) {
  const uint64_t rows = KernelRows(args);
  const auto& slots = args.plan->slots();
  const HashTableLayout& layout = *args.layout;
  LaunchConfig config = gpusim::MakeGridStrideConfig(device->spec(), rows);
  BlockWork work(config.grid_dim);
  const Status status =
      device->launcher().Launch(config, [&](const KernelCtx& ctx) {
        KernelWork* w = &work[ctx];
        for (uint64_t i = ctx.global_thread(); i < rows;
             i += ctx.total_threads()) {
          char* entry = FindOrInsert(args, i, w);
          if (entry == nullptr) {
            args.overflow->fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // One lock acquisition covers every aggregate of the row
          // (section 4.3.3): cheap when contention is low or the
          // aggregate count is high.
          uint32_t* lock =
              reinterpret_cast<uint32_t*>(entry + layout.lock_offset());
          w->lock_spins += DeviceSpinLock::Lock(lock);
          for (size_t s = 0; s < slots.size(); ++s) {
            const SlotValue v = LoadRowSlot(args, s, i);
            UpdateSlotPlain(slots[s], entry + layout.slot_offset(s), v);
          }
          DeviceSpinLock::Unlock(lock);
        }
      });
  work.AddTo(args.work);
  return status;
}

uint64_t SharedTableCapacity(const HashTableLayout& layout,
                             uint64_t budget_bytes) {
  const uint64_t entry = static_cast<uint64_t>(layout.entry_bytes());
  uint64_t cap = 16;
  while (cap * 2 * entry <= budget_bytes) cap *= 2;
  return cap * entry <= budget_bytes ? cap : 0;
}

Status RunKernelSharedMem(gpusim::SimDevice* device,
                          const GroupByKernelArgs& args) {
  if (args.input != nullptr && args.input->wide_key) {
    // The shared-memory kernel targets few-group queries with narrow keys;
    // the moderator never routes wide keys here.
    return Status::InvalidArgument("kernel 2 requires a <=64-bit key");
  }
  // Configure the SMX for the 48 KB shared-memory split (section 4.3.2).
  device->SetSharedMemConfig(kSharedKernelConfig);
  const HashTableLayout& layout = *args.layout;
  const uint64_t shared_cap =
      SharedTableCapacity(layout, device->usable_shared_mem());
  if (shared_cap == 0) {
    return Status::InvalidArgument("hash entry too large for shared memory");
  }
  const uint64_t rows = KernelRows(args);
  const uint64_t entry_bytes = static_cast<uint64_t>(layout.entry_bytes());
  const std::vector<char> mask = layout.BuildMask(*args.plan);
  const auto& slots = args.plan->slots();

  constexpr uint64_t kRowsPerBlock = 16384;
  LaunchConfig config;
  config.block_dim = 256;
  config.grid_dim =
      static_cast<uint32_t>(std::max<uint64_t>(1, CeilDiv(rows,
                                                          kRowsPerBlock)));
  config.shared_mem_bytes = shared_cap * entry_bytes;
  BlockWork work(config.grid_dim);

  // Row range of one block.
  auto block_range = [&](uint32_t b) {
    const uint64_t begin = static_cast<uint64_t>(b) * kRowsPerBlock;
    const uint64_t end = std::min(rows, begin + kRowsPerBlock);
    return std::pair<uint64_t, uint64_t>(begin, end);
  };

  // NOTE on memory model: the simulator executes all threads of one block
  // on a single worker, so shared-memory updates within a block need no
  // atomics (on hardware these would be shared-memory atomics); the global
  // table is shared across concurrently-running blocks and uses the same
  // atomic discipline as kernel 1.

  // Phase 0: initialize the block's shared table with the mask.
  auto init_phase = [&](const KernelCtx& ctx) {
    for (uint64_t e = ctx.thread_idx; e < shared_cap; e += ctx.block_dim) {
      std::memcpy(ctx.shared_mem + e * entry_bytes, mask.data(), entry_bytes);
    }
  };

  // Phase 1: partial group-by into shared memory; spill to global on
  // shared-table overflow.
  auto group_phase = [&](const KernelCtx& ctx) {
    KernelWork* w = &work[ctx];
    const auto [begin, end] = block_range(ctx.block_idx);
    for (uint64_t i = begin + ctx.thread_idx; i < end; i += ctx.block_dim) {
      const uint32_t row_id = LoadRowRep(args, i);
      const uint64_t key = LoadRowKey(args, i);
      // Probe the shared table (plain ops; see memory-model note).
      char* entry = nullptr;
      uint64_t pos = NarrowSlot(key, shared_cap);
      for (uint64_t probes = 0; probes < shared_cap; ++probes) {
        ++w->probes;
        char* e = ctx.shared_mem + pos * entry_bytes;
        uint64_t cur;
        std::memcpy(&cur, e, 8);
        if (cur == key) {
          entry = e;
          break;
        }
        if (cur == kEmptyKey64) {
          std::memcpy(e, &key, 8);
          *reinterpret_cast<uint32_t*>(e + layout.rep_row_offset()) = row_id;
          entry = e;
          break;
        }
        pos = (pos + 1) & (shared_cap - 1);
      }
      if (entry == nullptr) {
        // Shared table full: aggregate directly into the global table.
        char* gentry = FindOrInsert(args, i, w);
        if (gentry == nullptr) {
          args.overflow->fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        AggregateRowAtomic(args, gentry, i, w);
        continue;
      }
      for (size_t s = 0; s < slots.size(); ++s) {
        const SlotValue v = LoadRowSlot(args, s, i);
        UpdateSlotPlain(slots[s], entry + layout.slot_offset(s), v);
      }
    }
  };

  // Phase 2: merge the block's shared table into the global table.
  auto merge_phase = [&](const KernelCtx& ctx) {
    KernelWork* w = &work[ctx];
    for (uint64_t e = ctx.thread_idx; e < shared_cap; e += ctx.block_dim) {
      char* sentry = ctx.shared_mem + e * entry_bytes;
      uint64_t key;
      std::memcpy(&key, sentry, 8);
      if (key == kEmptyKey64) continue;
      const uint32_t rep =
          *reinterpret_cast<uint32_t*>(sentry + layout.rep_row_offset());
      char* gentry = FindOrInsertNarrow(args.table, layout, args.capacity,
                                        key, rep, w);
      if (gentry == nullptr) {
        args.overflow->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Merge accumulator values with the same atomic/lock discipline.
      for (size_t s = 0; s < slots.size(); ++s) {
        const AggSlot& slot = slots[s];
        SlotValue v;
        char* sp = sentry + layout.slot_offset(s);
        switch (slot.acc_type) {
          case DataType::kFloat64: std::memcpy(&v.f64, sp, 8); break;
          case DataType::kDecimal128: std::memcpy(&v.dec, sp, 16); break;
          case DataType::kInt32:
          case DataType::kDate: {
            int32_t tmp;
            std::memcpy(&tmp, sp, 4);
            v.i64 = tmp;
            break;
          }
          default: std::memcpy(&v.i64, sp, 8); break;
        }
        // Merging partial aggregates: COUNT partials merge by SUM.
        AggSlot merge_slot = slot;
        if (slot.fn == AggFn::kCount) merge_slot.fn = AggFn::kSum;
        char* gp = gentry + layout.slot_offset(s);
        if (slot.lock_required) {
          uint32_t* lock = reinterpret_cast<uint32_t*>(
              gentry + layout.lock_offset());
          w->lock_spins += DeviceSpinLock::Lock(lock);
          UpdateSlotPlain(merge_slot, gp, v);
          DeviceSpinLock::Unlock(lock);
        } else {
          UpdateSlotAtomic(merge_slot, gp, v);
        }
      }
    }
  };

  const Status status = device->launcher().Launch(
      config, std::vector<gpusim::KernelPhase>{init_phase, group_phase,
                                               merge_phase});
  work.AddTo(args.work);
  return status;
}

}  // namespace blusim::groupby
