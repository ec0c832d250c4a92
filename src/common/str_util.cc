#include "common/str_util.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <cstring>

namespace viewauth {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  while (begin < input.size() &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  size_t end = input.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string ToUpperAscii(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string ToLowerAscii(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

namespace {

unsigned long long Magnitude(long long value) {
  // Unsigned negation keeps LLONG_MIN's magnitude in range.
  return value < 0 ? 0ULL - static_cast<unsigned long long>(value)
                   : static_cast<unsigned long long>(value);
}

size_t DigitCount(unsigned long long magnitude) {
  static constexpr auto kPowersOf10 = [] {
    std::array<unsigned long long, 20> powers{};
    powers[0] = 1;
    for (size_t i = 1; i < powers.size(); ++i) powers[i] = powers[i - 1] * 10;
    return powers;
  }();
  // magnitude | 1 has magnitude's digit count (a power of ten above 1 is
  // even) and a defined log2; 1233 / 4096 is just above log10(2), so
  // `guess` is floor(log10) or one more.
  const unsigned long long odd = magnitude | 1;
  const auto bits = static_cast<size_t>(64 - __builtin_clzll(odd));
  const size_t guess = bits * 1233 >> 12;
  return guess + (odd >= kPowersOf10[guess] ? 1 : 0);
}

}  // namespace

size_t DecimalSize(long long value, bool commas) {
  const size_t digits = DigitCount(Magnitude(value));
  return (value < 0 ? 1 : 0) + digits + (commas ? (digits - 1) / 3 : 0);
}

char* WriteDecimal(long long value, bool commas, char* out) {
  // kTriples[3 * g] holds the three digits of g, zero-padded.
  static constexpr auto kTriples = [] {
    std::array<char, 3000> triples{};
    for (int g = 0; g < 1000; ++g) {
      triples[3 * g] = static_cast<char>('0' + g / 100);
      triples[3 * g + 1] = static_cast<char>('0' + g / 10 % 10);
      triples[3 * g + 2] = static_cast<char>('0' + g % 10);
    }
    return triples;
  }();
  char* const end = out + DecimalSize(value, commas);
  // Groups of three digits are written from the last one back.
  unsigned long long magnitude = Magnitude(value);
  char* cursor = end;
  for (; magnitude >= 1000; magnitude /= 1000) {
    cursor -= 3;
    std::memcpy(cursor, &kTriples[3 * (magnitude % 1000)], 3);
    if (commas) *--cursor = ',';
  }
  const size_t lead = magnitude >= 100 ? 3 : magnitude >= 10 ? 2 : 1;
  cursor -= lead;
  std::memcpy(cursor, &kTriples[3 * magnitude + 3 - lead], lead);
  if (value < 0) *--cursor = '-';
  return end;
}

std::string FormatWithCommas(long long value) {
  char text[32];
  return std::string(text, WriteDecimal(value, /*commas=*/true, text));
}

}  // namespace viewauth
