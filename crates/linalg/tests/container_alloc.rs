//! A container's claimed sequence length cannot make the reader reserve
//! more memory than the payload it has left.
//!
//! `Reader::seq` checks a claimed count against the payload bytes left at
//! one byte per item, since every item a writer appends takes at least one.
//! An item may be far wider in memory than that, so reserving the count
//! would amplify a hostile length by `size_of::<T>()`: 200 000 claimed
//! 424-byte items in a 250 KB payload used to reserve 85 MB before the
//! first short item failed. Shown from outside with an allocator that
//! records the largest request this thread makes. This file is its own test
//! binary because `#[global_allocator]` is per binary (and needs the one
//! `unsafe impl` the library crates forbid).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use utilcast_linalg::container::{Reader, Writer};

thread_local! {
    /// The largest allocation request this thread made since the last
    /// reset (the harness runs each test on a thread of its own).
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records a request of `size` bytes.
fn record(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the record is a const-initialised thread-local
// `Cell` (no allocation, no destructor) and `try_with` never panics.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// The largest allocation request `work` makes, and its result.
fn largest_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|largest| largest.set(0));
    let out = work();
    (LARGEST.with(Cell::get), out)
}

/// Words per item: 424 bytes, as wide as a `ClusterModel`.
const WORDS: usize = 53;

/// An item of [`WORDS`] words, written as a sequence item.
type Wide = [u64; WORDS];

fn wide(r: &mut Reader<'_>) -> Result<Wide, serde::DeError> {
    let mut item = [0u64; WORDS];
    for word in &mut item {
        *word = r.u64()?;
    }
    Ok(item)
}

#[test]
fn a_claimed_length_reserves_no_more_than_the_payload_left() {
    assert_eq!(std::mem::size_of::<Wide>(), 424);
    // A count of 200 000 items, then 250 000 payload bytes: enough for the
    // one-byte-per-item check, 589 whole items, and no more.
    let claimed = 200_000usize;
    let mut w = Writer::new();
    w.usize(claimed);
    for _ in 0..250_000 / 8 {
        w.u64(0);
    }
    let bytes = w.seal();
    let left = 250_000;
    let (largest, decoded) = largest_during(|| {
        let mut r = Reader::open(&bytes).expect("a well-framed container");
        r.seq(wide).map(|items| items.len())
    });
    let err = decoded.expect_err("the payload holds 589 items, not 200 000");
    assert!(err.to_string().contains("payload ends"), "{err}");
    assert!(
        largest <= left,
        "decoding reserved {largest} bytes from a payload of {left}"
    );

    // A long legitimate sequence of wide items still decodes, item for
    // item, inside the same bound.
    let items: Vec<Wide> = (0..2_000u64)
        .map(|i| std::array::from_fn(|j| i * 100 + j as u64))
        .collect();
    let mut w = Writer::new();
    w.seq(&items, |w, item| item.iter().for_each(|&v| w.u64(v)));
    let bytes = w.seal();
    let (largest, decoded) = largest_during(|| {
        let mut r = Reader::open(&bytes).expect("a well-framed container");
        let back = r.seq(wide);
        r.finish().map(|()| back)
    });
    assert_eq!(decoded.expect("whole").expect("every item"), items);
    assert!(largest <= bytes.len(), "{largest} > {}", bytes.len());
}
