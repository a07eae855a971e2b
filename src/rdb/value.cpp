#include "rdb/value.h"

#include <cstring>

#include "bloom/hashing.h"

namespace rdb {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kInt: return "INT";
    case ColumnType::kDouble: return "DOUBLE";
    case ColumnType::kVarchar: return "VARCHAR";
    case ColumnType::kTimestamp: return "TIMESTAMP";
  }
  return "?";
}

double Value::NumericValue() const {
  if (std::holds_alternative<int64_t>(data_)) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  if (std::holds_alternative<double>(data_)) return std::get<double>(data_);
  return 0.0;
}

bool Value::TypeMatches(ColumnType type) const {
  if (is_null()) return true;
  switch (type) {
    case ColumnType::kInt:
    case ColumnType::kTimestamp:
      return std::holds_alternative<int64_t>(data_);
    case ColumnType::kDouble:
      return std::holds_alternative<double>(data_) ||
             std::holds_alternative<int64_t>(data_);
    case ColumnType::kVarchar:
      return std::holds_alternative<std::string>(data_);
  }
  return false;
}

int Value::Compare(const Value& other) const {
  const bool lnull = is_null(), rnull = other.is_null();
  if (lnull || rnull) return (lnull ? 0 : 1) - (rnull ? 0 : 1);
  const bool lstr = is_string(), rstr = other.is_string();
  if (lstr != rstr) return lstr ? 1 : -1;  // numbers < strings
  if (lstr) {
    int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (std::holds_alternative<int64_t>(data_) &&
      std::holds_alternative<int64_t>(other.data_)) {
    // Exact: above 2^53 distinct integers share a double image.
    const int64_t l = AsInt(), r = other.AsInt();
    return l < r ? -1 : (l > r ? 1 : 0);
  }
  const double l = NumericValue(), r = other.NumericValue();
  if (l < r) return -1;
  if (l > r) return 1;
  return 0;
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x6e756c6cULL;
  if (is_string()) return bloom::Mix64(AsString(), 0x5472ULL);
  // Hash numerics through their double image so Int(3) == Double(3.0)
  // hash identically (consistent with Compare).
  double d = NumericValue();
  char buf[8];
  std::memcpy(buf, &d, 8);
  return bloom::Mix64(std::string_view(buf, 8), 0x4e554dULL);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_string()) return "'" + AsString() + "'";
  if (is_double()) return std::to_string(AsDouble());
  return std::to_string(AsInt());
}

namespace {
enum Tag : uint8_t { kTagNull = 0, kTagInt = 1, kTagDouble = 2, kTagString = 3, kTagTimestamp = 4 };
}

void Value::Encode(std::string* out) const {
  if (is_null()) {
    out->push_back(static_cast<char>(kTagNull));
  } else if (is_string()) {
    out->push_back(static_cast<char>(kTagString));
    uint32_t len = static_cast<uint32_t>(AsString().size());
    out->append(reinterpret_cast<const char*>(&len), 4);
    out->append(AsString());
  } else if (is_double()) {
    out->push_back(static_cast<char>(kTagDouble));
    double d = AsDouble();
    out->append(reinterpret_cast<const char*>(&d), 8);
  } else {
    out->push_back(static_cast<char>(is_timestamp_ ? kTagTimestamp : kTagInt));
    int64_t v = AsInt();
    out->append(reinterpret_cast<const char*>(&v), 8);
  }
}

rlscommon::Status Value::Decode(std::string_view* data, Value* out) {
  using rlscommon::Status;
  if (data->empty()) return Status::Protocol("truncated value");
  uint8_t tag = static_cast<uint8_t>((*data)[0]);
  data->remove_prefix(1);
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::Ok();
    case kTagInt:
    case kTagTimestamp: {
      if (data->size() < 8) return Status::Protocol("truncated int value");
      int64_t v;
      std::memcpy(&v, data->data(), 8);
      data->remove_prefix(8);
      *out = (tag == kTagTimestamp) ? Value::Timestamp(v) : Value::Int(v);
      return Status::Ok();
    }
    case kTagDouble: {
      if (data->size() < 8) return Status::Protocol("truncated double value");
      double v;
      std::memcpy(&v, data->data(), 8);
      data->remove_prefix(8);
      *out = Value::Double(v);
      return Status::Ok();
    }
    case kTagString: {
      if (data->size() < 4) return Status::Protocol("truncated string length");
      uint32_t len;
      std::memcpy(&len, data->data(), 4);
      data->remove_prefix(4);
      if (data->size() < len) return Status::Protocol("truncated string value");
      if (auto* str = std::get_if<std::string>(&out->data_)) {
        str->assign(data->data(), len);  // reuse the buffer of a scratch row
      } else {
        *out = Value::String(std::string(data->substr(0, len)));
      }
      data->remove_prefix(len);
      return Status::Ok();
    }
    default:
      return Status::Protocol("unknown value tag");
  }
}

}  // namespace rdb
