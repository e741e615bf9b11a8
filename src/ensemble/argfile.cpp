#include "ensemble/argfile.h"

#include <fstream>
#include <sstream>

#include "support/str.h"

namespace dgc::ensemble {

std::string_view StripComment(std::string_view line) {
  char quote = 0;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quote != 0) {
      // Inside double quotes \" and \\ are escapes (a mismatch here would
      // truncate the line mid-token and fail tokenization with
      // "unterminated quote").
      if (c == '\\' && quote == '"' && i + 1 < line.size() &&
          (line[i + 1] == '"' || line[i + 1] == '\\')) {
        ++i;
      } else if (c == quote) {
        quote = 0;
      }
    } else if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '\\') {
      ++i;
    } else if (c == '#') {
      return line.substr(0, i);
    }
  }
  return line;
}

StatusOr<std::vector<std::vector<std::string>>> ParseArgumentLines(
    std::string_view content) {
  std::vector<std::vector<std::string>> instances;
  std::size_t line_no = 0;
  for (std::string_view raw : SplitChar(content, '\n')) {
    ++line_no;
    const std::string_view line = StripComment(raw);
    if (TrimWhitespace(line).empty()) continue;

    auto tokens = TokenizeCommandLine(line);
    if (!tokens.ok()) {
      return Status(tokens.status().code(),
                    StrFormat("argument file line %zu: %s", line_no,
                              tokens.status().message().c_str()));
    }
    instances.push_back(std::move(*tokens));
  }
  if (instances.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "argument file contains no instances");
  }
  return instances;
}

StatusOr<std::vector<std::vector<std::string>>> LoadArgumentFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(ErrorCode::kNotFound, "cannot open argument file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseArgumentLines(buffer.str());
}

}  // namespace dgc::ensemble
