#include "table/two_level_iterator.h"

#include <string>

namespace elmo {

namespace {

class TwoLevelIterator : public Iterator {
 public:
  TwoLevelIterator(std::unique_ptr<Iterator> index_iter,
                   BlockFunction block_function)
      : index_iter_(std::move(index_iter)),
        block_function_(std::move(block_function)) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->Seek(target);
    SkipEmptyDataBlocksForward();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    SkipEmptyDataBlocksForward();
  }

  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) data_iter_->SeekToLast();
    SkipEmptyDataBlocksBackward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }

  void Prev() override {
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  Slice key() const override { return data_iter_->key(); }
  Slice value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    }
    return status_;
  }

 private:
  // A data-block error must survive even though the erroring iterator
  // is replaced while skipping.
  void SaveChildError() {
    if (data_iter_ != nullptr && status_.ok() &&
        !data_iter_->status().ok()) {
      status_ = data_iter_->status();
    }
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      SaveChildError();
      if (!index_iter_->Valid()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToFirst();
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      SaveChildError();
      if (!index_iter_->Valid()) {
        data_iter_.reset();
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) data_iter_->SeekToLast();
    }
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SaveChildError();
      data_iter_.reset();
      return;
    }
    Slice handle = index_iter_->value();
    if (data_iter_ != nullptr && handle == current_handle_) return;
    SaveChildError();
    current_handle_.assign(handle.data(), handle.size());
    data_iter_ = block_function_(handle);
  }

  std::unique_ptr<Iterator> index_iter_;
  BlockFunction block_function_;
  std::unique_ptr<Iterator> data_iter_;
  std::string current_handle_;
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> NewTwoLevelIterator(
    std::unique_ptr<Iterator> index_iter, BlockFunction block_function) {
  return std::make_unique<TwoLevelIterator>(std::move(index_iter),
                                            std::move(block_function));
}

}  // namespace elmo
