#include "sim/phonetic.h"

#include <cctype>

#include "util/string_util.h"

namespace mdmatch::sim {

namespace {

// Soundex digit for an uppercase letter; 0 means "not coded" (vowels and
// H/W/Y).
char SoundexDigit(char c) {
  switch (c) {
    case 'B': case 'F': case 'P': case 'V':
      return '1';
    case 'C': case 'G': case 'J': case 'K': case 'Q': case 'S': case 'X':
    case 'Z':
      return '2';
    case 'D': case 'T':
      return '3';
    case 'L':
      return '4';
    case 'M': case 'N':
      return '5';
    case 'R':
      return '6';
    default:
      return '0';
  }
}

std::string LettersOnlyUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

}  // namespace

std::string Soundex(std::string_view name) {
  std::string letters = LettersOnlyUpper(name);
  if (letters.empty()) return "";

  std::string code;
  code.push_back(letters[0]);
  char last_digit = SoundexDigit(letters[0]);
  for (size_t i = 1; i < letters.size() && code.size() < 4; ++i) {
    char c = letters[i];
    char d = SoundexDigit(c);
    if (d != '0' && d != last_digit) {
      code.push_back(d);
    }
    // H and W are transparent: they do not reset the previous digit, so
    // consonants with the same code separated by H/W are still collapsed.
    if (c != 'H' && c != 'W') last_digit = d;
  }
  while (code.size() < 4) code.push_back('0');
  return code;
}

std::string Nysiis(std::string_view name) {
  std::string s = LettersOnlyUpper(name);
  if (s.empty()) return "";

  auto replace_prefix = [&](std::string_view from, std::string_view to) {
    if (StartsWith(s, from)) s = std::string(to) + s.substr(from.size());
  };
  auto replace_suffix = [&](std::string_view from, std::string_view to) {
    if (EndsWith(s, from)) {
      s = s.substr(0, s.size() - from.size()) + std::string(to);
    }
  };

  replace_prefix("MAC", "MCC");
  replace_prefix("KN", "NN");
  replace_prefix("K", "C");
  replace_prefix("PH", "FF");
  replace_prefix("PF", "FF");
  replace_prefix("SCH", "SSS");

  replace_suffix("EE", "Y");
  replace_suffix("IE", "Y");
  replace_suffix("DT", "D");
  replace_suffix("RT", "D");
  replace_suffix("RD", "D");
  replace_suffix("NT", "D");
  replace_suffix("ND", "D");

  auto is_vowel = [](char c) {
    return c == 'A' || c == 'E' || c == 'I' || c == 'O' || c == 'U';
  };

  std::string key;
  key.push_back(s[0]);
  for (size_t i = 1; i < s.size(); ++i) {
    char c = s[i];
    // A view of one character of `s` (which the loop does not modify) or
    // of a literal: no string is built per character.
    std::string_view repl(&s[i], 1);
    if (is_vowel(c)) {
      if (c == 'E' && i + 1 < s.size() && s[i + 1] == 'V') {
        repl = "AF";
        ++i;  // consume the V
      } else {
        repl = "A";
      }
    } else if (c == 'Q') {
      repl = "G";
    } else if (c == 'Z') {
      repl = "S";
    } else if (c == 'M') {
      repl = "N";
    } else if (c == 'K') {
      repl = (i + 1 < s.size() && s[i + 1] == 'N') ? "N" : "C";
    } else if (c == 'S' && i + 2 < s.size() && s.compare(i, 3, "SCH") == 0) {
      repl = "SSS";
      i += 2;
    } else if (c == 'P' && i + 1 < s.size() && s[i + 1] == 'H') {
      repl = "FF";
      ++i;
    } else if (c == 'H') {
      bool prev_vowel = is_vowel(s[i - 1]);
      bool next_vowel = i + 1 < s.size() && is_vowel(s[i + 1]);
      if (!prev_vowel || !next_vowel) repl = std::string_view(&s[i - 1], 1);
    } else if (c == 'W' && is_vowel(s[i - 1])) {
      repl = std::string_view(&s[i - 1], 1);
    }
    for (char rc : repl) {
      if (key.empty() || key.back() != rc) key.push_back(rc);
    }
  }

  // Trailing S / AY / A adjustments.
  if (key.size() > 1 && key.back() == 'S') key.pop_back();
  if (key.size() > 2 && EndsWith(key, "AY")) {
    key = key.substr(0, key.size() - 2) + "Y";
  }
  if (key.size() > 1 && key.back() == 'A') key.pop_back();
  return key;
}

}  // namespace mdmatch::sim
