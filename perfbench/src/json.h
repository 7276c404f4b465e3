// Minimal JSON object writer for the benchmark's line-oriented output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

std::string JsonEscape(std::string_view text);
/// `text` as a quoted JSON string.
std::string JsonString(std::string_view text);

/// Builds one JSON object field by field: JsonObject().Num("a", 1).Str(...).
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double value);
  JsonObject& Int(std::string_view key, std::uint64_t value);
  JsonObject& Bool(std::string_view key, bool value);
  JsonObject& Str(std::string_view key, std::string_view value);
  /// `json` must already be a serialized JSON value.
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string str() const { return body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_ = "{";
};

/// Prints `object` as one line on stdout and flushes.
void EmitLine(const JsonObject& object);

std::string Hex(std::uint64_t value);

}  // namespace perfbench
