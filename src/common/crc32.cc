#include "common/crc32.h"

#include <array>

namespace viewauth {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table,
// and kTables[k][b] is the CRC of byte b followed by k zero bytes, so
// eight table lookups fold eight input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Crc32Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::string_view data) {
  crc = ~crc;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  // Bytes are assembled little-endian by hand, so the loop is portable
  // and needs no aligned loads.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFF];
  }
  return ~crc;
}

}  // namespace viewauth
