#ifndef DCER_OBS_JSON_H_
#define DCER_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dcer {

/// Minimal streaming JSON writer for run reports, dcerd's STATS answer and
/// the eval runner. Handles commas, nesting and string escaping; the caller
/// provides structure via BeginObject/Key/Value calls. Output is a single
/// line (no pretty printing); its readers (perfbench, jq, python) do not
/// care.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of the next object member. Must be followed by a value
  /// (or Begin{Object,Array}).
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view v);
  JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
  JsonWriter& Value(double v);
  JsonWriter& Value(uint64_t v);
  JsonWriter& Value(int64_t v);
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(unsigned v) { return Value(static_cast<uint64_t>(v)); }
  JsonWriter& Value(bool v);

  /// Key + value in one call.
  template <typename T>
  JsonWriter& KV(std::string_view key, const T& v) {
    Key(key);
    return Value(v);
  }

  /// The document so far. Valid JSON once every Begin has been Ended.
  const std::string& str() const { return out_; }

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true once it has at least one element.
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

}  // namespace dcer

#endif  // DCER_OBS_JSON_H_
