#include "common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// The slicing-by-8 loop over a raw (pre-inverted) CRC state.
uint32_t UpdateTables(uint32_t crc, const unsigned char* p, size_t n) {
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
  return crc;
}

#if defined(__x86_64__)

// Carry-less multiplication needs these instructions; the code below is
// compiled for them and runs only once the CPU reports both.
#define VIEWAUTH_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

VIEWAUTH_CRC_FOLD_TARGET inline __m128i Load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// `lane` moved on by the distance the constants `k` fold, plus `next`.
VIEWAUTH_CRC_FOLD_TARGET inline __m128i Fold(__m128i lane, __m128i k,
                                             __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i high = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(high, low), next);
}

// Folding with carry-less multiplication (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel 2009), in the bit-reflected domain of 0xEDB88320: four 128-bit
// lanes each absorb 64 input bytes per step, fold into one lane, absorb
// the remaining 16-byte blocks, and a Barrett reduction brings the lane
// back to 32 bits. `n` is a multiple of 16 and at least 64; `crc` is
// the raw state, and so is the result.
VIEWAUTH_CRC_FOLD_TARGET uint32_t UpdateFolded(uint32_t crc,
                                               const unsigned char* p,
                                               size_t n) {
  // x^(4*128+32) and x^(4*128-32) mod P, reflected and shifted left by
  // one, fold a lane 512 bits on; x^(128+32) and x^(128-32) fold it 128
  // bits on; x^64 mod P folds 64; then P itself and floor(x^64 / P) for
  // the reduction.
  alignas(16) static const uint64_t k512[] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const uint64_t k128[] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const uint64_t k64[] = {0x0163cd6124, 0};
  alignas(16) static const uint64_t kBarrett[] = {0x01db710641,
                                                 0x01f7011641};

  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(k512));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k, Load16(p));
    x2 = Fold(x2, k, Load16(p + 16));
    x3 = Fold(x3, k, Load16(p + 32));
    x4 = Fold(x4, k, Load16(p + 48));
  }
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(k128));
  x1 = Fold(x1, k, x2);
  x1 = Fold(x1, k, x3);
  x1 = Fold(x1, k, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k, Load16(p));

  // 128 bits to 64.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k64));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), k, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool CpuFolds() {
  static const bool folds = [] {
    // A checksum taken during static initialization may run before the
    // runtime has read the CPU's features.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return folds;
}

#undef VIEWAUTH_CRC_FOLD_TARGET

#endif

}  // namespace

uint32_t Crc32Update(uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
#if defined(__x86_64__)
  // Shorter inputs stay on the tables, as does the tail past the last
  // whole 16-byte block.
  if (n >= 64 && CpuFolds()) {
    const size_t folded = n & ~size_t{15};
    crc = UpdateFolded(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ~UpdateTables(crc, p, n);
}

}  // namespace viewauth
