#include "json.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonString(std::string_view text) {
  std::string out;
  out.push_back('"');
  out += JsonEscape(text);
  out.push_back('"');
  return out;
}

void JsonObject::Key(std::string_view key) {
  if (body_.size() > 1) body_ += ",";
  body_ += JsonString(key);
  body_ += ":";
}

JsonObject& JsonObject::Num(std::string_view key, double value) {
  Key(key);
  if (!std::isfinite(value)) {
    body_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, std::uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

void EmitLine(const JsonObject& object) {
  const std::string line = object.str();
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

std::string Hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
