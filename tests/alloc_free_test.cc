// Allocation regression test for the timed path.
//
// The NIC keeps its in-flight state in fixed tables; the simulator mirrors
// that with pooled per-transaction state and an inline-callback event core.
// This test pins the result: once warm, a same-size PUT overwrite allocates
// nothing on the heap from submission to retirement, a GET allocates at most
// its result value, and a contended burst of multi-TLP DMA reads allocates
// nothing. A counting global operator new measures every allocation in the
// process inside the counted window.
//
// The replicated write path is not allocation-free yet (frames, log entries,
// session records and replay-cache copies are heap objects); its test pins
// the count one warm replicated PUT reaches, so a new per-write copy on the
// replication hop fails it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "src/core/kv_direct.h"
#include "src/net/wire_format.h"
#include "src/pcie/dma_engine.h"
#include "src/replica/replica_wire.h"
#include "src/replica/replication_group.h"
#include "src/sim/simulator.h"
#include "src/transport/frame.h"

namespace {

bool g_counting = false;
uint64_t g_allocations = 0;

}  // namespace

void* operator new(size_t size) {
  if (g_counting) {
    g_allocations++;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace kvd {
namespace {

// Counts the heap allocations made while it is alive.
class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocationWindow() { g_counting = false; }
  uint64_t count() const { return g_allocations; }
};

constexpr uint32_t kKvBytes = 60;
constexpr uint32_t kKeyBytes = 8;
constexpr uint64_t kNumKeys = 8192;
constexpr uint32_t kBatch = 512;  // > 256 in flight: exercises the backlog

std::vector<uint8_t> KeyBytes(uint64_t id) {
  std::vector<uint8_t> key(kKeyBytes);
  for (uint32_t i = 0; i < kKeyBytes; i++) {
    key[i] = static_cast<uint8_t>(id >> (8 * i));
  }
  return key;
}

std::vector<uint8_t> ValueBytes(uint8_t fill) {
  return std::vector<uint8_t>(kKvBytes - kKeyBytes, fill);
}

ServerConfig MidServerConfig() {
  ServerConfig config;
  config.kvs_memory_bytes = 8 * kMiB;
  config.nic_dram.capacity_bytes = 1 * kMiB;
  config.AutoTune(kKvBytes, /*long_tail=*/false);
  return config;
}

// One batch of ops over a spread of keys (so most go through the memory
// system, with some same-slot parking), built before any window opens.
std::vector<KvOperation> BuildBatch(Opcode opcode, uint8_t fill) {
  std::vector<KvOperation> ops(kBatch);
  for (uint32_t i = 0; i < kBatch; i++) {
    ops[i].opcode = opcode;
    ops[i].key = KeyBytes((i * 2654435761u) % kNumKeys);
    if (opcode == Opcode::kPut) {
      ops[i].value = ValueBytes(fill);
    }
  }
  return ops;
}

struct BatchResult {
  uint64_t retired = 0;
  uint64_t ok = 0;
};

// Submits the ops straight to the KV processor and runs the simulator until
// every one has retired. The completion captures one pointer, so it fits
// std::function's local buffer.
void RunBatch(KvDirectServer& server, std::vector<KvOperation>& ops,
              BatchResult& result) {
  for (KvOperation& op : ops) {
    server.processor().Submit(std::move(op), [&result](KvResultMessage r) {
      result.retired++;
      result.ok += r.code == ResultCode::kOk ? 1 : 0;
    });
  }
  server.simulator().RunUntilIdle();
}

class AllocFreeServerTest : public ::testing::Test {
 protected:
  AllocFreeServerTest() : server_(MidServerConfig()) {
    for (uint64_t id = 0; id < kNumKeys; id++) {
      EXPECT_TRUE(server_.Load(KeyBytes(id), ValueBytes(1)).ok());
    }
    // Warm every pool, ring, and reused buffer with the same op mix the
    // counted window runs.
    for (int round = 0; round < 3; round++) {
      for (const Opcode opcode : {Opcode::kPut, Opcode::kGet}) {
        std::vector<KvOperation> ops = BuildBatch(opcode, 2);
        BatchResult warm;
        RunBatch(server_, ops, warm);
        EXPECT_EQ(warm.ok, kBatch);
      }
    }
  }

  KvDirectServer server_;
};

TEST_F(AllocFreeServerTest, SameSizePutOverwriteAllocatesNothing) {
  std::vector<KvOperation> ops = BuildBatch(Opcode::kPut, 3);
  BatchResult result;
  uint64_t allocations = 0;
  {
    AllocationWindow window;
    RunBatch(server_, ops, result);
    allocations = window.count();
  }
  EXPECT_EQ(result.ok, kBatch);
  EXPECT_EQ(allocations, 0u);
}

TEST_F(AllocFreeServerTest, GetAllocatesOnlyItsResultValue) {
  std::vector<KvOperation> ops = BuildBatch(Opcode::kGet, 0);
  BatchResult result;
  uint64_t allocations = 0;
  {
    AllocationWindow window;
    RunBatch(server_, ops, result);
    allocations = window.count();
  }
  EXPECT_EQ(result.ok, kBatch);
  EXPECT_LE(allocations, uint64_t{kBatch});
}

TEST(AllocFreeDmaTest, ContendedMultiTlpReadBurstAllocatesNothing) {
  Simulator sim;
  DmaEngine dma(sim, DmaEngineConfig{});
  // 64 reads of 4 TLPs each want 256 tags from a pool of 64.
  constexpr uint32_t kReads = 64;
  constexpr uint32_t kBytes = 1024;
  uint64_t completed = 0;
  auto burst = [&] {
    for (uint32_t i = 0; i < kReads; i++) {
      dma.Read(uint64_t{i} * 4096, kBytes, [&completed] { completed++; });
    }
    sim.RunUntilIdle();
  };
  burst();  // warm-up
  uint64_t allocations = 0;
  {
    AllocationWindow window;
    burst();
    allocations = window.count();
  }
  EXPECT_EQ(completed, 2u * kReads);
  EXPECT_GT(dma.tag_pool().total_waits(), 0u);
  EXPECT_EQ(allocations, 0u);
}

// One framed single-PUT GroupRequest under `sequence`, built outside any
// counted window.
std::vector<uint8_t> PutFrame(uint64_t sequence, uint64_t id, uint8_t fill) {
  KvOperation put;
  put.opcode = Opcode::kPut;
  put.key = KeyBytes(id);
  put.value = ValueBytes(fill);
  PacketBuilder builder;
  EXPECT_TRUE(builder.Add(put));
  GroupRequest request;
  request.ops_payload = builder.Finish();
  return FramePacket(sequence, EncodeGroupRequest(request));
}

TEST(AllocFreeReplicationTest, WarmReplicatedPutAllocationsArePinned) {
  ReplicationConfig config;
  config.num_replicas = 3;
  config.server = MidServerConfig();
  ReplicationGroup group(config);
  Simulator& sim = group.simulator();
  for (uint64_t id = 0; id < 64; id++) {
    ASSERT_TRUE(group.Load(KeyBytes(id), ValueBytes(1)).ok());
  }
  const uint64_t base = group.AcquireClientSequenceBase();
  // Heartbeat ticks run every 200 us from t = 0; each PUT starts 50 us past
  // one, so its whole round trip (a few us) stays clear of heartbeat traffic.
  constexpr SimTime kTick = 200 * kMicrosecond;
  uint64_t acked_allocations = 0;
  bool acked = false;
  auto put = [&](uint64_t n) {
    sim.RunUntil((sim.Now() / kTick + 1) * kTick + 50 * kMicrosecond);
    std::vector<uint8_t> frame = PutFrame(base + n, n % 8, static_cast<uint8_t>(n));
    std::function<void(std::vector<uint8_t>)> respond =
        [&](std::vector<uint8_t>) {
          acked_allocations = g_allocations;
          acked = true;
        };
    acked = false;
    {
      AllocationWindow window;
      group.DeliverClientFrame(0, std::move(frame), std::move(respond));
      while (!acked) {
        ASSERT_TRUE(sim.Step());
      }
    }
  };
  // Warm every pool, ring, log deque block and hash bucket on the path; the
  // last PUT's count is the one pinned.
  for (uint64_t n = 0; n <= 64; n++) {
    put(n);
  }
  EXPECT_EQ(group.commit_index(), 65u);
  // The count from DeliverClientFrame to the quorum ack, pinned where the
  // copy-free hop left it (the copying hop made 86).
  EXPECT_LE(acked_allocations, 38u);
}

}  // namespace
}  // namespace kvd
