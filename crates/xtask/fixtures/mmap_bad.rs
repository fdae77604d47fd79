//! Known-bad fixture: a hand-rolled memory mapping outside the coroutine
//! stacks. A mention of munmap in this doc comment must NOT count; each
//! live token below must be flagged.

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

fn private_arena(len: usize) -> *mut u8 {
    // "mprotect in a comment is fine"
    let msg = "mprotect in a string is fine too";
    let _ = msg;
    unsafe {
        let p = mmap(std::ptr::null_mut(), len, 3, 0x22, -1, 0);
        munmap(p, len);
        p
    }
}

#[cfg(test)]
mod tests {
    // Test modules are stripped: this must not count.
    extern "C" {
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    }
}
