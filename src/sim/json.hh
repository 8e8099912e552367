/**
 * @file
 * Minimal JSON support for the stats/bench observability layer: string
 * escaping for the emitters and a small recursive-descent parser used
 * to round-trip and schema-check emitted documents. No external
 * dependency; only the subset of JSON the emitters produce (objects,
 * arrays, strings, numbers, booleans, null) is supported.
 */

#ifndef TARTAN_SIM_JSON_HH
#define TARTAN_SIM_JSON_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tartan::sim::json {

/** Write @p s to @p os as a quoted, escaped JSON string. */
void writeString(std::ostream &os, std::string_view s);

/** Write a double the way the emitters do (finite -> shortest, else null). */
void writeNumber(std::ostream &os, double v);

/**
 * Write a document to @p path atomically *and durably*: @p emit
 * streams into a process-unique temporary next to the target, the
 * temporary is fsynced, renamed over the target, and the parent
 * directory is fsynced so the rename itself survives a crash.
 * Concurrent writers (RunPool workers finalizing traces, overlapping
 * bench processes sharing one output directory) can therefore never
 * interleave bytes or expose a half-written file, and once the call
 * returns true the bytes are on disk — a kill -9 (or power cut)
 * immediately after leaves either the old file or the complete new
 * one, never a torn mix. The temporary is opened in binary mode, so
 * binary documents (capture files) are written byte for byte. Creates
 * missing parent directories; on failure removes the temporary and
 * reports through warn(), tagged with @p what ("trace", "bench",
 * "cache", "capture").
 */
bool writeFileDurable(const std::string &path,
                      const std::function<void(std::ostream &)> &emit,
                      const char *what);

/** A parsed JSON value (tree-owning). */
struct Value {
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::map<std::string, Value> object;
    std::vector<Value> array;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;
};

/**
 * Parse a complete JSON document. Returns false (with a diagnostic in
 * @p err when non-null) on malformed input or trailing garbage.
 */
bool parse(std::string_view text, Value &out, std::string *err = nullptr);

} // namespace tartan::sim::json

#endif // TARTAN_SIM_JSON_HH
