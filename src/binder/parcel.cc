#include "src/binder/parcel.h"

#include <utility>

namespace androne {

Parcel::Parcel(Parcel&& other) noexcept
    : entries_(std::move(other.entries_)),
      cursor_(other.cursor_),
      binder_entries_(other.binder_entries_) {
  other.entries_.clear();
  other.cursor_ = 0;
  other.binder_entries_ = 0;
}

Parcel& Parcel::operator=(Parcel&& other) noexcept {
  if (this != &other) {
    entries_ = std::move(other.entries_);
    cursor_ = other.cursor_;
    binder_entries_ = other.binder_entries_;
    other.entries_.clear();
    other.cursor_ = 0;
    other.binder_entries_ = 0;
  }
  return *this;
}

void Parcel::WriteInt32(int32_t v) {
  entries_.push_back(Entry{Kind::kInt32, v, 0.0, {}});
}

void Parcel::WriteInt64(int64_t v) {
  entries_.push_back(Entry{Kind::kInt64, v, 0.0, {}});
}

void Parcel::WriteDouble(double v) {
  entries_.push_back(Entry{Kind::kDouble, 0, v, {}});
}

void Parcel::WriteBool(bool v) {
  entries_.push_back(Entry{Kind::kBool, v ? 1 : 0, 0.0, {}});
}

void Parcel::WriteString(const std::string& s) {
  entries_.push_back(Entry{Kind::kString, 0, 0.0, s});
}

void Parcel::WriteBinderHandle(BinderHandle handle) {
  AppendBinderEntry(handle);
}

void Parcel::AppendBinderEntry(int64_t scalar) {
  entries_.push_back(Entry{Kind::kBinder, scalar, 0.0, {}});
  ++binder_entries_;
}

void Parcel::WriteFd(FdToken fd) {
  entries_.push_back(Entry{Kind::kFd, fd, 0.0, {}});
}

StatusOr<const Parcel::Entry*> Parcel::Next(Kind expected) const {
  if (cursor_ >= entries_.size()) {
    return OutOfRangeError("parcel read past end");
  }
  const Entry& e = entries_[cursor_];
  if (e.kind != expected) {
    return InvalidArgumentError("parcel entry type mismatch at index " +
                                std::to_string(cursor_));
  }
  ++cursor_;
  return &e;
}

StatusOr<int32_t> Parcel::ReadInt32() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kInt32));
  return static_cast<int32_t>(e->scalar);
}

StatusOr<int64_t> Parcel::ReadInt64() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kInt64));
  return e->scalar;
}

StatusOr<double> Parcel::ReadDouble() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kDouble));
  return e->real;
}

StatusOr<bool> Parcel::ReadBool() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kBool));
  return e->scalar != 0;
}

StatusOr<std::string> Parcel::ReadString() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kString));
  return e->text;
}

StatusOr<BinderHandle> Parcel::ReadBinderHandle() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kBinder));
  return static_cast<BinderHandle>(e->scalar);
}

StatusOr<FdToken> Parcel::ReadFd() const {
  ASSIGN_OR_RETURN(const Entry* e, Next(Kind::kFd));
  return e->scalar;
}

}  // namespace androne
