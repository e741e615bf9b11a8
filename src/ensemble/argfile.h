// The command-line-arguments file (paper §3.2, Fig. 5b).
//
// Each line holds the arguments of one application instance:
//
//   -a 1 -b -c data-1.bin
//   -a 2 -b -c data-2.bin
//
// Grammar extensions beyond the paper (documented in README): `#` starts a
// comment, blank lines are skipped, and tokens may be quoted ('...' or
// "...") or backslash-escaped to carry spaces.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace dgc::ensemble {

/// `line` up to the `#` that starts its comment, or all of it when it has
/// none. A `#` inside quotes or after a backslash is part of a token; the
/// scan follows TokenizeCommandLine's quoting rules exactly. Argument files
/// and argument scripts share this rule.
std::string_view StripComment(std::string_view line);

/// Parses argument-file content; result[i] is instance i's argv[1..] (the
/// loader prepends argv[0], as Fig. 4 does with `argv[0]`).
StatusOr<std::vector<std::vector<std::string>>> ParseArgumentLines(
    std::string_view content);

/// Reads and parses an argument file from the host filesystem.
StatusOr<std::vector<std::vector<std::string>>> LoadArgumentFile(
    const std::string& path);

}  // namespace dgc::ensemble
