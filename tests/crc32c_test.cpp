#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rlscommon {
namespace {

/// Bit-at-a-time CRC32C: the definition, with no tables.
uint32_t BitwiseCrc32c(const unsigned char* p, std::size_t len) {
  uint32_t crc = ~0u;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
  }
  return ~crc;
}

std::vector<unsigned char> Pattern(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 (iSCSI) section B.4.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  std::string ascending, descending;
  for (int i = 0; i < 32; ++i) {
    ascending.push_back(static_cast<char>(i));
    descending.push_back(static_cast<char>(31 - i));
  }
  EXPECT_EQ(Crc32c(ascending), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(descending), 0x113FDB5Cu);
}

TEST(Crc32cTest, CheckValue) {
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(std::string_view()), 0u);
}

TEST(Crc32cTest, MatchesBitwiseDefinitionAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = Pattern(96);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; start + len <= 80; ++len) {
      ASSERT_EQ(Crc32c(bytes.data() + start, len), BitwiseCrc32c(bytes.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

TEST(Crc32cTest, ExtendAtEverySplitEqualsOneShot) {
  const std::vector<unsigned char> bytes = Pattern(1024 + 7);
  for (std::size_t start : {1u, 3u, 6u}) {
    const unsigned char* p = bytes.data() + start;
    const std::size_t len = 1024;
    const uint32_t whole = Crc32c(p, len);
    for (std::size_t split = 0; split <= len; ++split) {
      ASSERT_EQ(Crc32cExtend(Crc32c(p, split), p + split, len - split), whole)
          << "start " << start << " split " << split;
    }
  }
}

}  // namespace
}  // namespace rlscommon
