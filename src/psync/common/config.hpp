// Minimal INI-style configuration parser for the psync_sim command-line
// experiment runner (tools/). Supports [sections], key = value pairs,
// '#'/';' comments, and typed accessors with defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace psync {

class IniConfig {
 public:
  /// Parse from text; throws ConfigError with a line number on
  /// malformed input (garbage lines, keys outside any section, duplicate
  /// keys within a section).
  static IniConfig parse(const std::string& text);

  /// Parse from a file; throws SimulationError if unreadable.
  static IniConfig load(const std::string& path);

  bool has_section(const std::string& section) const;
  bool has(const std::string& section, const std::string& key) const;
  std::vector<std::string> sections() const;
  std::vector<std::string> keys(const std::string& section) const;

  /// Raw string lookup.
  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  /// Typed accessors, by the same rules ConfigSchema::validate checks;
  /// they throw ConfigError naming the key on unparsable values.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& section, const std::string& key,
                       std::int64_t fallback) const;
  double get_double(const std::string& section, const std::string& key,
                    double fallback) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback) const;
  /// Whitespace-separated lists of at least one value (empty if absent).
  std::vector<std::int64_t> get_ints(const std::string& section,
                                     const std::string& key) const;
  std::vector<double> get_doubles(const std::string& section,
                                  const std::string& key) const;

 private:
  // section -> key -> value, insertion-ordered via auxiliary lists.
  std::map<std::string, std::map<std::string, std::string>> data_;
  std::vector<std::string> section_order_;
  std::map<std::string, std::vector<std::string>> key_order_;
};

/// One problem found while validating a config against a ConfigSchema.
struct ConfigDiagnostic {
  enum class Kind { kUnknownSection, kUnknownKey, kBadValue };
  Kind kind = Kind::kUnknownKey;
  std::string section;
  std::string key;      // empty for kUnknownSection
  std::string message;  // human-readable, includes did-you-mean suggestions

  std::string to_string() const;
};

/// Declarative description of every section/key a tool understands, with
/// value types, so typos stop silently falling back to defaults: validate()
/// reports unknown sections, unknown keys (with a nearest-name suggestion)
/// and type-mismatched values as a diagnostics list instead of throwing.
/// Tools decide the severity (psync_sim warns by default, fails under
/// --strict).
class ConfigSchema {
 public:
  enum class Type { kString, kInt, kDouble, kBool, kIntList, kDoubleList };

  /// Declare a section with no keys yet (also implied by key()).
  ConfigSchema& section(const std::string& name);
  /// Declare a key and its value type.
  ConfigSchema& key(const std::string& section, const std::string& name,
                    Type type);

  /// Every problem in `cfg`, in section/key insertion order.
  std::vector<ConfigDiagnostic> validate(const IniConfig& cfg) const;

  /// Every declared section -> key -> type.
  const std::map<std::string, std::map<std::string, Type>>& keys() const {
    return schema_;
  }

 private:
  std::map<std::string, std::map<std::string, Type>> schema_;
};

}  // namespace psync
