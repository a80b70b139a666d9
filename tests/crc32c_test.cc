#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <random>
#include <string>

namespace elmo::crc32c {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

struct Kernel {
  const char* name;
  ExtendFn extend;
  bool needs_hardware;
};

void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }

// Extend is whichever kernel this CPU selected; the other two are
// pinned so both run on every host that supports them.
const Kernel kKernels[] = {
    {"Dispatched", Extend, false},
    {"Table", internal::ExtendTable, false},
    {"Hardware", internal::ExtendHardware, true},
};

class Crc32cKernel : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam().needs_hardware && !internal::HardwareAvailable()) {
      GTEST_SKIP() << "CPU lacks SSE4.2";
    }
  }
  uint32_t Value(const char* data, size_t n) const {
    return GetParam().extend(0, data, n);
  }
  uint32_t Extend(uint32_t crc, const char* data, size_t n) const {
    return GetParam().extend(crc, data, n);
  }
};

TEST_P(Crc32cKernel, StandardVectors) {
  // Known CRC32C test vectors (iSCSI polynomial, RFC 3720 B.4).
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, Value(buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(0x46dd794eu, Value(buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(0x113fdb5cu, Value(buf, sizeof(buf)));
}

TEST_P(Crc32cKernel, iSCSIReadCommand) {
  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56u,
            Value(reinterpret_cast<char*>(data), sizeof(data)));
}

TEST_P(Crc32cKernel, ExtendEqualsConcat) {
  std::string hello = "hello ";
  std::string world = "world";
  std::string both = hello + world;
  EXPECT_EQ(Value(both.data(), both.size()),
            Extend(Value(hello.data(), hello.size()), world.data(),
                   world.size()));
}

TEST_P(Crc32cKernel, EmptyInput) {
  EXPECT_EQ(0u, Value("", 0));
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32cKernel, ::testing::ValuesIn(kKernels),
                         ::testing::PrintToStringParamName());

TEST(Crc32c, DifferentInputsDiffer) {
  EXPECT_NE(Value("a", 1), Value("foo", 3));
  EXPECT_NE(Value("foo", 3), Value("bar", 3));
}

TEST(Crc32c, MaskRoundTrip) {
  uint32_t crc = Value("foo", 3);
  EXPECT_NE(crc, Mask(crc));
  EXPECT_NE(crc, Mask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Mask(crc)));
  EXPECT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

// Hardware-vs-table cross-checks over random bytes. The buffer is a
// std::string so each start offset is a distinct (mis)alignment of the
// hardware kernel's 8-byte loads.
class Crc32cCrossCheck : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!internal::HardwareAvailable()) GTEST_SKIP() << "CPU lacks SSE4.2";
    std::mt19937 rng(301);
    data_.resize(kMaxLen + 8);
    for (char& c : data_) c = static_cast<char>(rng());
  }

  // WAL records, 4 KiB blocks and a block plus its trailer all fit.
  static constexpr size_t kMaxLen = 4200;
  std::string data_;
};

TEST_F(Crc32cCrossCheck, EveryLength) {
  for (size_t n = 0; n <= kMaxLen; n++) {
    ASSERT_EQ(internal::ExtendTable(0, data_.data(), n),
              internal::ExtendHardware(0, data_.data(), n))
        << "length " << n;
  }
}

TEST_F(Crc32cCrossCheck, EveryStartOffset) {
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{63}, size_t{4096}, kMaxLen}) {
      const char* p = data_.data() + offset;
      ASSERT_EQ(internal::ExtendTable(0, p, n),
                internal::ExtendHardware(0, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST_F(Crc32cCrossCheck, ExtendAtRandomSplits) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 2000; trial++) {
    const size_t n = rng() % (kMaxLen + 1);
    const size_t split = rng() % (n + 1);
    const char* p = data_.data();
    const uint32_t whole = internal::ExtendTable(0, p, n);
    const uint32_t head = internal::ExtendHardware(0, p, split);
    EXPECT_EQ(whole, internal::ExtendHardware(head, p + split, n - split))
        << "length " << n << " split " << split;
    // Mixed kernels: a crc started by one continues in the other.
    EXPECT_EQ(whole, internal::ExtendTable(head, p + split, n - split));
  }
}

}  // namespace
}  // namespace elmo::crc32c
