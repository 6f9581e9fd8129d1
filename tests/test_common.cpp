// Unit tests for the common substrate: half-precision conversion, packed
// sub-byte storage, deterministic RNG, and the dense matrix container.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/half.hpp"
#include "common/matrix.hpp"
#include "common/packed.hpp"
#include "common/precision.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace magicube {
namespace {

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    EXPECT_EQ(float(half(static_cast<float>(i))), static_cast<float>(i));
  }
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(half(1.0f).bits(), 0x3c00);
  EXPECT_EQ(half(-2.0f).bits(), 0xc000);
  EXPECT_EQ(half(0.5f).bits(), 0x3800);
  EXPECT_EQ(half(65504.0f).bits(), 0x7bff);  // max finite half
  EXPECT_EQ(half(0.0f).bits(), 0x0000);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_EQ(half(1e6f).bits(), 0x7c00);
  EXPECT_EQ(half(-1e6f).bits(), 0xfc00);
}

TEST(Half, SubnormalRoundTrip) {
  const float smallest = 0x1p-24f;  // smallest positive subnormal
  EXPECT_EQ(float(half(smallest)), smallest);
  EXPECT_EQ(half(smallest * 0.25f).bits(), 0x0000);  // underflow to zero
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half; ties go to
  // even mantissa (1.0).
  EXPECT_EQ(half(1.0f + 0x1p-11f).bits(), half(1.0f).bits());
  // 1 + 3*2^-11 is halfway between the next two; ties to even rounds up.
  EXPECT_EQ(half(1.0f + 3 * 0x1p-11f).bits(),
            static_cast<std::uint16_t>(half(1.0f).bits() + 2));
}

TEST(Half, RoundTripAllFiniteBitPatterns) {
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const auto h = half::from_bits(static_cast<std::uint16_t>(bits));
    const float f = float(h);
    if (std::isnan(f)) continue;
    EXPECT_EQ(half(f).bits(), h.bits()) << "bits=" << bits;
  }
}

TEST(Packed, SignExtend) {
  EXPECT_EQ(sign_extend(0b1101, 4), -3);
  EXPECT_EQ(sign_extend(0b0101, 4), 5);
  EXPECT_EQ(sign_extend(0xed, 8), -19);
  EXPECT_EQ(sign_extend(0x7fff, 16), 32767);
  EXPECT_EQ(sign_extend(0x8000, 16), -32768);
}

TEST(Packed, EncodeDecodeRoundTrip) {
  for (int bits : {4, 8, 12, 16}) {
    const int lo = -(1 << (bits - 1)), hi = (1 << (bits - 1)) - 1;
    for (int v = lo; v <= hi; v += (bits <= 8 ? 1 : 37)) {
      EXPECT_EQ(sign_extend(encode_twos_complement(v, bits), bits), v);
    }
  }
}

/// Test-only reference: the bit-serial accessors PackedBuffer had before
/// its byte-window ones, over a plain byte array with the same layout.
struct BitSerialOracle {
  BitSerialOracle(std::size_t count, Scalar type)
      : bits(bits_of(type)),
        bytes((count * static_cast<std::size_t>(bits) + 7) / 8, 0) {}

  std::uint32_t get_raw(std::size_t i) const {
    const std::size_t bit_off = i * static_cast<std::size_t>(bits);
    std::uint32_t out = 0;
    for (int b = 0; b < bits; ++b) {
      const std::size_t pos = bit_off + static_cast<std::size_t>(b);
      out |= ((bytes[pos >> 3] >> (pos & 7)) & 1u) << b;
    }
    return out;
  }

  void set_raw(std::size_t i, std::uint32_t raw) {
    const std::size_t bit_off = i * static_cast<std::size_t>(bits);
    for (int b = 0; b < bits; ++b) {
      const std::size_t pos = bit_off + static_cast<std::size_t>(b);
      const auto mask = static_cast<std::uint8_t>(1u << (pos & 7));
      if ((raw >> b) & 1u) {
        bytes[pos >> 3] |= mask;
      } else {
        bytes[pos >> 3] &= static_cast<std::uint8_t>(~mask);
      }
    }
  }

  int bits;
  std::vector<std::uint8_t> bytes;
};

/// Every element and every byte of `buf` agree with the oracle.
void expect_matches_oracle(const PackedBuffer& buf,
                           const BitSerialOracle& oracle) {
  ASSERT_EQ(buf.byte_size(), oracle.bytes.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf.get_raw(i), oracle.get_raw(i)) << "element " << i;
  }
  EXPECT_EQ(std::vector<std::uint8_t>(buf.data(), buf.data() + buf.byte_size()),
            oracle.bytes);
}

/// 0..n-1 in a seeded random order (Fisher-Yates).
std::vector<std::size_t> scrambled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.next_in(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

class PackedBufferTest : public ::testing::TestWithParam<Scalar> {};

TEST_P(PackedBufferTest, OddCountsMatchBitSerialOracle) {
  // 7 and 257 elements: for 4- and 12-bit types the last element ends
  // mid-byte, so a window that reads one byte too many shows under ASan.
  const Scalar type = GetParam();
  Rng rng(11);
  for (std::size_t count : {std::size_t{7}, std::size_t{257}}) {
    PackedBuffer buf(count, type);
    BitSerialOracle oracle(count, type);
    for (std::size_t i = 0; i < count; ++i) {
      const auto v = static_cast<std::int32_t>(
          rng.next_in(min_value(type), max_value(type)));
      buf.set(i, v);
      oracle.set_raw(i, encode_twos_complement(v, bits_of(type)));
    }
    expect_matches_oracle(buf, oracle);
  }
}

TEST_P(PackedBufferTest, ScrambledOverwritesMatchBitSerialOracle) {
  // Fill in one random order, then overwrite in another: every write lands
  // between non-zero neighbours and must leave their bits alone.
  const Scalar type = GetParam();
  const int bits = bits_of(type);
  const std::uint32_t all_ones = (1u << bits) - 1u;
  Rng rng(12);
  PackedBuffer buf(257, type);
  BitSerialOracle oracle(257, type);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i : scrambled(buf.size(), rng)) {
      // Pass 0 writes all-ones, so later passes overwrite set bits; the
      // others draw any pattern, zero included.
      const std::uint32_t raw =
          pass == 0 ? all_ones
                    : static_cast<std::uint32_t>(rng.next_u64()) & all_ones;
      buf.set_raw(i, raw);
      oracle.set_raw(i, raw);
    }
    expect_matches_oracle(buf, oracle);
  }
}

TEST_P(PackedBufferTest, SetGetRoundTrip) {
  const Scalar type = GetParam();
  Rng rng(7);
  PackedBuffer buf(257, type);
  std::vector<std::int32_t> expect(257);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    expect[i] = static_cast<std::int32_t>(
        rng.next_in(min_value(type), max_value(type)));
    buf.set(i, expect[i]);
  }
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.get(i), expect[i]) << "i=" << i;
  }
}

TEST_P(PackedBufferTest, ByteSizeMatchesBitWidth) {
  const Scalar type = GetParam();
  PackedBuffer buf(64, type);
  EXPECT_EQ(buf.byte_size(), 64u * static_cast<unsigned>(bits_of(type)) / 8);
}

INSTANTIATE_TEST_SUITE_P(AllIntegerTypes, PackedBufferTest,
                         ::testing::Values(Scalar::u4, Scalar::s4, Scalar::u8,
                                           Scalar::s8, Scalar::s12,
                                           Scalar::u12, Scalar::s16,
                                           Scalar::u16),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Packed, NibbleHelpers) {
  const std::uint32_t n[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t w = pack_nibbles8(n);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(nibble_of(w, i), n[i]);
  const std::uint32_t b[4] = {0xaa, 0xbb, 0xcc, 0xdd};
  const std::uint32_t wb = pack_bytes4(b);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(byte_of(wb, i), b[i]);
}

TEST(Precision, RangesAndBits) {
  EXPECT_EQ(bits_of(Scalar::s12), 12);
  EXPECT_EQ(min_value(Scalar::s4), -8);
  EXPECT_EQ(max_value(Scalar::s4), 7);
  EXPECT_EQ(min_value(Scalar::u8), 0);
  EXPECT_EQ(max_value(Scalar::u8), 255);
  EXPECT_EQ(min_value(Scalar::s16), -32768);
  EXPECT_TRUE(is_native(precision::L8R8));
  EXPECT_TRUE(is_native(precision::L4R4));
  EXPECT_FALSE(is_native(precision::L16R8));
  EXPECT_EQ(to_string(precision::L12R4), "L12-R4");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsProduceDistinctStreams) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundsRespected) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_in(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Matrix, IndexingAndEquality) {
  Matrix<int> m(3, 4, 0);
  m(2, 3) = 7;
  EXPECT_EQ(m.row(2)[3], 7);
  Matrix<int> n = m;
  EXPECT_EQ(m, n);
  n(0, 0) = 1;
  EXPECT_FALSE(m == n);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<int> hits(1000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100, [&](std::size_t i) {
        if (i == 57) throw Error("boom");
      }),
      Error);
}

TEST(ThreadPool, SubmitReturnsFutureValue) {
  auto f = ThreadPool::instance().submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  auto f = ThreadPool::instance().submit(
      []() -> int { throw Error("async boom"); });
  EXPECT_THROW(f.get(), Error);
}

// Regression for nested fan-out: kernel-style parallel_fors issued from
// inside submitted tasks, two levels deep, must complete even when every
// pool worker is occupied by such a task — the scheduler-inside-kernel
// scenario that would deadlock a pool whose callers waited on queued work.
TEST(ThreadPool, NestedParallelForInsideSubmittedTasksCompletes) {
  auto& pool = ThreadPool::instance();
  const std::size_t tasks = 2 * pool.worker_count() + 1;
  constexpr std::size_t kOuter = 8, kInner = 100;
  std::vector<std::future<std::size_t>> futures;
  futures.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    futures.push_back(pool.submit([] {
      EXPECT_TRUE(ThreadPool::on_worker_thread());
      std::vector<std::atomic<int>> hits(kOuter * kInner);
      parallel_for(kOuter, [&](std::size_t o) {
        parallel_for(kInner, [&](std::size_t i) {
          EXPECT_TRUE(ThreadPool::on_worker_thread());
          hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
        });
      });
      std::size_t once = 0;
      for (const auto& h : hits) once += h.load() == 1 ? 1 : 0;
      return once;
    }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), kOuter * kInner);
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

// A parallel_for from inside a submitted task spreads over idle workers:
// 32 indices at 1 ms each give helpers time to claim work. Retries a few
// times in case a worker had not parked yet when the grid was issued.
TEST(ThreadPool, NestedParallelForRecruitsIdleWorkers) {
  if (ThreadPool::instance().worker_count() == 1) {
    GTEST_SKIP() << "a one-worker pool has no idle worker to recruit";
  }
  std::size_t threads = 0;
  for (int attempt = 0; attempt < 5 && threads < 2; ++attempt) {
    auto f = ThreadPool::instance().submit([] {
      std::mutex mutex;
      std::set<std::thread::id> ids;
      parallel_for(32, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
      });
      return ids.size();
    });
    threads = f.get();
  }
  EXPECT_GE(threads, 2u);
}

TEST(ThreadPool, ExceptionOnHelperIndexReachesWorkerCaller) {
  auto& pool = ThreadPool::instance();
  if (pool.worker_count() == 1) {
    GTEST_SKIP() << "a one-worker pool has no helper to throw on";
  }
  bool caught = false;
  for (int attempt = 0; attempt < 5 && !caught; ++attempt) {
    auto f = pool.submit([] {
      const std::thread::id caller = std::this_thread::get_id();
      std::atomic<bool> thrown{false};
      try {
        parallel_for(32, [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (std::this_thread::get_id() != caller && !thrown.exchange(true)) {
            throw Error("helper boom");
          }
        });
      } catch (const Error&) {
        return true;
      }
      EXPECT_FALSE(thrown.load()) << "a helper's exception was swallowed";
      return false;
    });
    caught = f.get();
  }
  EXPECT_TRUE(caught);
}

TEST(ThreadPool, TrivialRangeOnNonPoolThreadDoesNotClaimWorkerStatus) {
  // A top-level parallel_for(1, ...) runs inline, but the calling thread is
  // not pool-owned: on_worker_thread() must stay false and an inner
  // parallel_for must still cover its whole range (and may fan out).
  std::vector<int> hits(256, 0);
  parallel_for(1, [&](std::size_t) {
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForFromTopLevelBodyCompletes) {
  std::vector<int> hits(64 * 32, 0);
  parallel_for(64, [&](std::size_t outer) {
    parallel_for(32, [&](std::size_t inner) {
      hits[outer * 32 + inner] += 1;
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, NestedParallelForStillPropagatesExceptions) {
  auto f = ThreadPool::instance().submit([] {
    parallel_for(10, [](std::size_t i) {
      if (i == 3) throw Error("nested boom");
    });
  });
  EXPECT_THROW(f.get(), Error);
}

TEST(Check, ThrowsWithContext) {
  try {
    MAGICUBE_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace magicube
