// Reader for compile_commands.json (the clang JSON compilation database).
//
// psync_lint needs exactly two things from it: the set of first-party
// translation units, and a repo root to relativize paths against. The text
// goes through the strict common/json reader, and anything malformed fails
// loudly as a CompileDbError rather than being guessed at.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace psync::lintpass {

class CompileDbError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse the database text and return the absolute path of every entry's
/// "file", resolved against its "directory" when relative, deduplicated,
/// sorted. Throws CompileDbError on malformed JSON or missing keys.
std::vector<std::string> compile_db_files(const std::string& json_text);

/// Infer the repo root from the database: the prefix of the first entry
/// containing "/src/psync/". Returns "" when no entry matches.
std::string infer_repo_root(const std::vector<std::string>& files);

}  // namespace psync::lintpass
