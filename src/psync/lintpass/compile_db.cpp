#include "psync/lintpass/compile_db.hpp"

#include <algorithm>

#include "psync/common/json.hpp"

namespace psync::lintpass {
namespace {

// Every reader failure becomes the module's typed error.
void need(const JsonReader& r, bool ok) {
  if (!ok) {
    throw CompileDbError(std::string("compile_commands.json: ") + r.error() +
                         " at offset " + std::to_string(r.error_offset()));
  }
}

std::string join_path(const std::string& dir, const std::string& file) {
  if (!file.empty() && file.front() == '/') return file;
  if (dir.empty()) return file;
  return dir.back() == '/' ? dir + file : dir + "/" + file;
}

// Lexically normalize "a/b/../c" and "a/./b"; the database CMake writes
// can reference TUs via relative segments.
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (cur == "..") {
        if (!parts.empty()) parts.pop_back();
      } else if (!cur.empty() && cur != ".") {
        parts.push_back(cur);
      }
      cur.clear();
    } else {
      cur.push_back(path[i]);
    }
  }
  std::string out;
  for (const auto& p : parts) out += "/" + p;
  if (path.empty() || path.front() != '/') {
    return out.empty() ? "." : out.substr(1);
  }
  return out.empty() ? "/" : out;
}

}  // namespace

std::vector<std::string> compile_db_files(const std::string& json_text) {
  JsonReader r(json_text);
  std::vector<std::string> files;
  need(r, r.eat('['));
  if (!r.eat(']')) {
    do {
      need(r, r.eat('{'));
      std::string dir;
      std::string file;
      if (!r.eat('}')) {
        do {
          std::string key;
          need(r, r.string(&key) && r.eat(':'));
          if (key == "directory") {
            need(r, r.string(&dir));
          } else if (key == "file") {
            need(r, r.string(&file));
          } else {
            need(r, r.skip_value());
          }
        } while (r.eat(','));
        need(r, r.eat('}'));
      }
      if (file.empty()) {
        throw CompileDbError("compile_commands.json: entry without \"file\"");
      }
      files.push_back(normalize(join_path(dir, file)));
    } while (r.eat(','));
    need(r, r.eat(']'));
  }
  need(r, r.at_end());
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string infer_repo_root(const std::vector<std::string>& files) {
  for (const auto& f : files) {
    const std::size_t at = f.find("/src/psync/");
    if (at != std::string::npos) return f.substr(0, at);
  }
  return "";
}

}  // namespace psync::lintpass
