// anthill-lint — repo-specific static checks over src/ and bench/.
//
// The invariants that make this reproduction trustworthy are not ones the
// compiler enforces: every random draw flows through util/rng (so runs are
// bit-identical at any thread count and cache fingerprints mean something),
// the simulation core never consults a clock, result-affecting iteration
// never depends on hash-table order, masked hot-path rounds stay
// allocation-free, and every identity-bearing float is rendered through
// std::to_chars / util::format_double. This tool turns each of those
// invariants into a token-level rule that fails the build.
//
// Rules (each proven live by a fixture in tests/lint_fixtures/):
//
//   raw-rng      `rand(`/`srand(`/`drand48`..., `std::mt19937*`,
//                `random_device`, or `#include <random>` anywhere outside
//                src/util/rng.{hpp,cpp}. All randomness goes through
//                util::Rng so draw sequences stay owned and keyable.
//   wall-clock   `std::chrono`, `time(`, `clock(`, `gettimeofday`,
//                `clock_gettime`, ... inside src/core or src/env. The
//                decision kernels and worlds must be pure functions of
//                (config, seed, round) — never of the wall clock.
//   unordered-iter
//                A `std::unordered_map<`/`std::unordered_set<` type
//                anywhere in src/ or bench/ without a same-line
//                `// lint: order-independent` waiver. Hash-order iteration
//                feeding CSV/aggregate output is how nondeterminism
//                sneaks past the determinism tests; the waiver records the
//                audit that no ordered output depends on it.
//   no-alloc     Allocation keywords (`new`, `make_unique`, `make_shared`,
//                `resize`, `push_back`, `emplace_back`, `reserve`) inside
//                a function annotated `// lint: no-alloc`. Per-line waiver
//                `// lint: capacity-reserved` records that the container's
//                capacity was reserved at construction (the runtime
//                counting-allocator tests in test_hotpath verify the
//                claim). The annotation governs the next `{...}` body.
//   float-fmt    `ostringstream`/`stringstream`/`setprecision`, or
//                `snprintf`/`sprintf` with a float conversion (%f/%g/%e/%a)
//                in protocol/CSV/spec code (src/service/, util/csv,
//                util/json, analysis/manifest, analysis/spec). Floats that
//                cross a byte-compared boundary must go through
//                std::to_chars or util::format_double, the shortest
//                round-trip renderings the service protocol pins. Waiver:
//                `// lint: allow-float-fmt` (e.g. the format_double
//                implementation itself, or non-float uses of a stream).
//
// Comments and string/char literals are stripped before matching, so prose
// mentioning std::mt19937 (e.g. the rationale comment in util/rng.hpp) can
// never trigger a rule; waiver directives are read from the comment text.
//
// Usage:
//   anthill_lint [--root DIR] [paths...]   default paths: src bench
//   anthill_lint --list-rules
//
// Exit: 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// One source file split into per-line code text (comments and literal
/// contents blanked out, structure preserved) and per-line comment text
/// (where `lint:` directives live).
struct LexedFile {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

/// Blank comments and string/char literal contents, preserving line
/// structure and the quotes themselves. Comment text is captured per line.
/// Handles //, /*...*/, "...", '...', and R"delim(...)delim".
LexedFile lex(const std::string& text) {
  LexedFile out;
  std::string code;
  std::string comment;
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;  // ")delim" that closes the active raw string
  auto flush_line = [&] {
    out.code.push_back(code);
    out.comments.push_back(comment);
    code.clear();
    comment.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      flush_line();
      if (state == State::kLine) state = State::kCode;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (code.empty() || !(std::isalnum(static_cast<unsigned char>(
                                          code.back())) ||
                                      code.back() == '_'))) {
          // R"delim( ... )delim"
          std::size_t open = text.find('(', i + 2);
          if (open == std::string::npos) {
            code += c;
            break;
          }
          // Appended in place: `")" + text.substr(...)` inlines a
          // string insert that GCC 12 at -O3 flags under -Werror=restrict.
          raw_delim.assign(1, ')');
          raw_delim.append(text, i + 2, open - (i + 2));
          raw_delim.push_back('"');
          code += "R\"\"";
          state = State::kRaw;
          i = open;  // skip to just past '('
        } else if (c == '"') {
          code += '"';
          state = State::kString;
        } else if (c == '\'') {
          code += '\'';
          state = State::kChar;
        } else {
          code += c;
        }
        break;
      case State::kLine:
        comment += c;
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          code += '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          code += '\'';
          state = State::kCode;
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  flush_line();
  return out;
}

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// True when `token` occurs in `line` with word boundaries on both sides.
/// When `call_only`, the token must be followed (after spaces) by '('.
bool has_token(std::string_view line, std::string_view token,
               bool call_only = false) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_word(line[pos - 1]);
    std::size_t after = pos + token.size();
    const bool right_ok = after >= line.size() || !is_word(line[after]);
    if (left_ok && right_ok) {
      if (!call_only) return true;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == '(') return true;
    }
    pos += 1;
  }
  return false;
}

bool has_waiver(std::string_view comment, std::string_view waiver) {
  return comment.find(waiver) != std::string_view::npos;
}

bool path_contains(const std::string& path, std::string_view piece) {
  return path.find(piece) != std::string::npos;
}

/// %f/%g/%e/%a conversion (with optional flags/width/precision) in the RAW
/// line — used only after a *printf token matched in the code text, so a
/// format like "%06llu" (integers) stays legal while "%.3f" is flagged.
bool has_float_conversion(std::string_view raw) {
  std::size_t pos = 0;
  while ((pos = raw.find('%', pos)) != std::string_view::npos) {
    std::size_t i = pos + 1;
    while (i < raw.size() &&
           (std::isdigit(static_cast<unsigned char>(raw[i])) ||
            raw[i] == '.' || raw[i] == '*' || raw[i] == '-' ||
            raw[i] == '+' || raw[i] == ' ' || raw[i] == '#' ||
            raw[i] == 'l' || raw[i] == 'h' || raw[i] == 'L')) {
      ++i;
    }
    if (i < raw.size() && (raw[i] == 'f' || raw[i] == 'g' || raw[i] == 'e' ||
                           raw[i] == 'a' || raw[i] == 'F' || raw[i] == 'G' ||
                           raw[i] == 'E' || raw[i] == 'A')) {
      return true;
    }
    pos = i;
  }
  return false;
}

struct RuleScope {
  bool raw_rng = false;
  bool wall_clock = false;
  bool unordered = false;
  bool no_alloc = false;
  bool float_fmt = false;
};

/// Which rules apply to a file, by its (generic, '/'-separated) path.
RuleScope scope_for(const std::string& path) {
  RuleScope scope;
  // util/rng implements the sanctioned RNG; everything else must use it.
  scope.raw_rng = !path_contains(path, "util/rng.");
  scope.wall_clock =
      path_contains(path, "src/core/") || path_contains(path, "src/env/");
  scope.unordered = true;
  scope.no_alloc = true;
  scope.float_fmt = path_contains(path, "src/service/") ||
                    path_contains(path, "util/csv.") ||
                    path_contains(path, "util/json.") ||
                    path_contains(path, "analysis/manifest.") ||
                    path_contains(path, "analysis/spec.");
  return scope;
}

void check_file(const fs::path& file, const std::string& display,
                std::vector<Finding>& findings) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    findings.push_back({display, 0, "io", "cannot read file"});
    return;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Raw lines for float-conversion checks (format strings are blanked in
  // the code view).
  std::vector<std::string> raw_lines;
  {
    std::size_t start = 0;
    while (start <= text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      raw_lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }
  const LexedFile lexed = lex(text);
  const RuleScope scope = scope_for(display);
  const auto add = [&](std::size_t line_index, const char* rule,
                       std::string message) {
    findings.push_back(
        {display, line_index + 1, rule, std::move(message)});
  };

  // no-alloc regions: [first '{' after an annotation, its matching '}'].
  // Depth is tracked over the code view, so braces in comments/strings
  // can't derail the matcher.
  std::vector<std::pair<std::size_t, std::size_t>> no_alloc_regions;
  if (scope.no_alloc) {
    for (std::size_t i = 0; i < lexed.comments.size(); ++i) {
      if (!has_waiver(lexed.comments[i], "lint: no-alloc")) continue;
      int depth = 0;
      bool entered = false;
      std::size_t begin = i;
      for (std::size_t j = i; j < lexed.code.size(); ++j) {
        for (char c : lexed.code[j]) {
          if (c == '{') {
            if (!entered) {
              entered = true;
              begin = j;
            }
            ++depth;
          } else if (c == '}') {
            if (entered && --depth == 0) {
              no_alloc_regions.emplace_back(begin, j);
              j = lexed.code.size();  // break outer
              break;
            }
          }
        }
        // Annotation with no body within the file (e.g. on a declaration):
        // treated as governing nothing rather than erroring.
      }
    }
  }
  const auto in_no_alloc = [&](std::size_t line_index) {
    return std::any_of(no_alloc_regions.begin(), no_alloc_regions.end(),
                       [&](const auto& region) {
                         return line_index >= region.first &&
                                line_index <= region.second;
                       });
  };

  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    const std::string& code = lexed.code[i];
    const std::string& comment = lexed.comments[i];
    if (code.empty() && comment.empty()) continue;

    if (scope.raw_rng && !has_waiver(comment, "lint: allow-raw-rng")) {
      const bool include_random =
          code.find("#include") != std::string::npos &&
          code.find("<random>") != std::string::npos;
      if (include_random || has_token(code, "mt19937") ||
          has_token(code, "mt19937_64") || has_token(code, "random_device") ||
          has_token(code, "rand", true) || has_token(code, "srand", true) ||
          has_token(code, "rand_r", true) || has_token(code, "drand48") ||
          has_token(code, "lrand48") || has_token(code, "random_shuffle")) {
        add(i, "raw-rng",
            "raw randomness outside util/rng — draw through util::Rng "
            "(keyed streams are what make runs bit-identical and "
            "cacheable)");
      }
    }

    if (scope.wall_clock && !has_waiver(comment, "lint: allow-wall-clock")) {
      if (code.find("std::chrono") != std::string::npos ||
          code.find("chrono::") != std::string::npos ||
          has_token(code, "time", true) || has_token(code, "clock", true) ||
          has_token(code, "gettimeofday") ||
          has_token(code, "clock_gettime") || has_token(code, "localtime") ||
          has_token(code, "gmtime") || has_token(code, "strftime") ||
          has_token(code, "system_clock") ||
          has_token(code, "steady_clock")) {
        add(i, "wall-clock",
            "wall-clock/time call in the simulation core — results must "
            "be a pure function of (config, seed, round)");
      }
    }

    if (scope.unordered && !has_waiver(comment, "lint: order-independent") &&
        code.find("#include") == std::string::npos) {
      if (code.find("std::unordered_map<") != std::string::npos ||
          code.find("std::unordered_set<") != std::string::npos) {
        add(i, "unordered-iter",
            "unordered container in result-affecting code — audit that no "
            "ordered output iterates it, then waive with "
            "'// lint: order-independent'");
      }
    }

    if (scope.no_alloc && in_no_alloc(i) &&
        !has_waiver(comment, "lint: capacity-reserved")) {
      for (const char* token :
           {"make_unique", "make_shared", "resize", "push_back",
            "emplace_back", "reserve"}) {
        if (has_token(code, token)) {
          add(i, "no-alloc",
              std::string(token) +
                  " inside a '// lint: no-alloc' function — hot rounds "
                  "must not allocate (waive capacity-stable calls with "
                  "'// lint: capacity-reserved')");
        }
      }
      if (has_token(code, "new")) {
        add(i, "no-alloc",
            "operator new inside a '// lint: no-alloc' function — hot "
            "rounds must not allocate");
      }
    }

    if (scope.float_fmt && !has_waiver(comment, "lint: allow-float-fmt")) {
      if (has_token(code, "ostringstream") ||
          has_token(code, "stringstream") ||
          has_token(code, "setprecision")) {
        add(i, "float-fmt",
            "iostream formatting in protocol/CSV code — render floats "
            "with std::to_chars or util::format_double (byte-stable, "
            "locale-free)");
      } else if ((has_token(code, "snprintf") || has_token(code, "sprintf") ||
                  has_token(code, "fprintf") || has_token(code, "printf")) &&
                 i < raw_lines.size() && has_float_conversion(raw_lines[i])) {
        add(i, "float-fmt",
            "printf-family float conversion in protocol/CSV code — use "
            "std::to_chars or util::format_double");
      }
    }
  }
}

void collect(const fs::path& root, const fs::path& input,
             std::vector<fs::path>& files, bool& io_error) {
  const fs::path path = input.is_absolute() ? input : root / input;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (auto it = fs::recursive_directory_iterator(path, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc") {
        files.push_back(it->path());
      }
    }
  } else if (fs::is_regular_file(path, ec)) {
    files.push_back(path);
  } else {
    std::fprintf(stderr, "anthill-lint: no such file or directory: %s\n",
                 path.string().c_str());
    io_error = true;
  }
}

constexpr const char* kRuleList =
    "raw-rng         randomness outside util/rng (rand, mt19937, "
    "random_device, <random>)\n"
    "wall-clock      clock/time calls inside src/core or src/env\n"
    "unordered-iter  std::unordered_{map,set} without a "
    "'// lint: order-independent' waiver\n"
    "no-alloc        allocation keywords inside '// lint: no-alloc' "
    "functions\n"
    "float-fmt       float formatting in protocol/CSV code not using "
    "to_chars/format_double\n";

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      std::fputs(kRuleList, stdout);
      return 0;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "anthill-lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::fputs(
          "usage: anthill_lint [--root DIR] [--list-rules] [paths...]\n"
          "       default paths: src bench (relative to --root)\n",
          stdout);
      return 0;
    }
    inputs.emplace_back(arg);
  }
  if (inputs.empty()) inputs = {"src", "bench"};

  std::vector<fs::path> files;
  bool io_error = false;
  for (const std::string& input : inputs) {
    collect(root, input, files, io_error);
  }
  if (io_error) return 2;
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  for (const fs::path& file : files) {
    // Display paths generically (forward slashes) and relative to root
    // when possible, so rule scoping by path piece is portable.
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    const std::string display =
        (ec || rel.empty() ? file : rel).generic_string();
    check_file(file, display, findings);
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "anthill-lint: %zu finding(s) over %zu file(s)\n",
                 findings.size(), files.size());
    return 1;
  }
  std::printf("anthill-lint: %zu file(s) clean\n", files.size());
  return 0;
}
