// TwoLevelIterator: a lazy concatenation. An index iterator names the
// blocks in order; only the block under the cursor is open. A table uses
// it over its index block (data blocks), a Version over a sorted level's
// file list (tables).
#pragma once

#include <functional>
#include <memory>

#include "table/iterator.h"

namespace elmo {

// Opens the iterator over the block an index value names. An error is
// returned as an (empty) iterator whose status() carries it.
using BlockFunction = std::function<std::unique_ptr<Iterator>(const Slice&)>;

// Keys of index_iter must be upper bounds of their blocks' keys, in the
// same order, so Seek(target) on the index lands on the only block that
// can hold the first key >= target. A block that fails to open is
// stepped over; its error stays in status() from then on.
std::unique_ptr<Iterator> NewTwoLevelIterator(
    std::unique_ptr<Iterator> index_iter, BlockFunction block_function);

}  // namespace elmo
