//! Stackful coroutines: the execution vehicle of a simulation's logical
//! threads, and the only `unsafe` code of the scheduler.
//!
//! A [`Coro`] runs a closure on a stack of its own. [`Coro::resume`] runs it
//! until the closure calls [`Coro::suspend`] or returns; a switch between the
//! two sides is one call that saves the System V callee-saved registers
//! (`rbx rbp r12–r15`), the MXCSR and x87 control words and the stack
//! pointer, then restores the other side's — a few nanoseconds, where an OS
//! thread handoff costs a park, an unpark and a wake-up.
//!
//! **Platform: x86_64 Linux.** The switch is x86_64 assembly and the stacks
//! come from Linux's `mmap`, declared here as raw `extern "C"` items against
//! the libc `std` already links (the repository vendors no `libc` crate; the
//! server's `runtime/sys.rs` uses the same idiom). Any other target is a
//! compile error rather than a simulator without an engine.
//!
//! **Stacks.** Each coroutine gets [`STACK_BYTES`] of `mmap`ed memory with a
//! `PROT_NONE` guard page below it, so an overflow faults instead of
//! scribbling over a neighbour; pages are committed only when touched. The
//! size is the stack `std` gives a spawned thread, which is what a logical
//! thread had before it was a coroutine; the deepest body in the debug-build
//! test suite uses a small fraction of it, and `deep_body_fits_its_stack`
//! pins a floor.
//!
//! **Panics.** The entry trampoline runs the closure under `catch_unwind`,
//! so a panic never unwinds across the assembly frame: [`Coro::resume`]
//! hands the payload back to the resumer. The trampoline's call-frame
//! information marks the return address undefined, which ends a backtrace
//! (or any other unwinder walk) taken inside the coroutine at its entry.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "nmp-sim's scheduler runs logical threads as coroutines whose context switch is x86_64 \
     assembly over Linux mmap'ed stacks (crates/nmp-sim/src/engine/coro.rs)"
);

use std::arch::naked_asm;
use std::cell::Cell;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

/// Usable stack of one coroutine, in bytes (see the module docs).
pub(super) const STACK_BYTES: usize = 2 << 20;

const PAGE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut u8 = !0 as *mut u8;

/// Reset values of MXCSR (all exceptions masked, round to nearest) and of
/// the x87 control word (extended precision, round to nearest): the
/// floating-point environment a coroutine starts in.
const MXCSR_DEFAULT: usize = 0x1F80;
const FPCW_DEFAULT: usize = 0x037F;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

/// An `mmap`ed stack: [`STACK_BYTES`] above one guard page.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    fn new() -> Stack {
        let len = STACK_BYTES + PAGE;
        // SAFETY: a fresh private anonymous mapping aliases nothing; the
        // guard page is its own lowest page.
        unsafe {
            let base = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            assert!(
                base != MAP_FAILED,
                "mmap of a coroutine stack: {}",
                io::Error::last_os_error()
            );
            if mprotect(base, PAGE, PROT_NONE) != 0 {
                let err = io::Error::last_os_error();
                munmap(base, len);
                panic!("mprotect of a coroutine guard page: {err}");
            }
            Stack { base, len }
        }
    }

    /// One past the highest usable byte; page-aligned, so 16-byte aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(self.len)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Created, body not started.
    Fresh,
    /// Parked in [`Coro::suspend`].
    Suspended,
    /// Executing (itself, or a coroutine it resumed).
    Running,
    /// The body returned or panicked; the stack holds no live frame.
    Finished,
}

/// A coroutine's control block; boxed, so its address — which the
/// coroutine's own frames hold — never moves.
struct Inner {
    stack: Stack,
    state: Cell<State>,
    /// The coroutine's saved stack pointer while it is not running (at
    /// first, its initial frame).
    sp: Cell<usize>,
    /// The resumer's saved stack pointer while the coroutine runs.
    resumer: Cell<usize>,
    body: Cell<Option<Box<dyn FnOnce()>>>,
    outcome: Cell<Option<thread::Result<()>>>,
}

/// A closure running on a stack of its own, resumed and suspended
/// explicitly. Not `Send`: a coroutine's frames may hold references into
/// the thread-local storage of the OS thread it started on.
pub(super) struct Coro(Box<Inner>);

impl Coro {
    /// A coroutine that runs `body` when first resumed.
    pub(super) fn new(body: Box<dyn FnOnce()>) -> Coro {
        let inner = Box::new(Inner {
            stack: Stack::new(),
            state: Cell::new(State::Fresh),
            sp: Cell::new(0),
            resumer: Cell::new(0),
            body: Cell::new(Some(body)),
            outcome: Cell::new(None),
        });
        // The frame `switch` pops on the first resume, lowest address
        // first: control words, r15, r14, r13, r12 (the entry function),
        // rbx (its argument), rbp (zero: the end of the frame-pointer
        // chain), and the return address (the trampoline). `switch` returns
        // into the trampoline with the stack pointer at the 16-aligned top.
        let frame: [usize; 8] = [
            MXCSR_DEFAULT | (FPCW_DEFAULT << 32),
            0,
            0,
            0,
            coro_main as *const () as usize,
            &*inner as *const Inner as usize,
            0,
            trampoline as *const () as usize,
        ];
        let sp = inner.stack.top().wrapping_sub(size_of_val(&frame)) as *mut usize;
        // SAFETY: the frame lies in the top 64 bytes of the stack, which
        // nothing else uses yet.
        unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
        inner.sp.set(sp as usize);
        Coro(inner)
    }

    /// Run the coroutine until it suspends (`None`) or its body ends:
    /// `Some(Ok(()))` when it returned, `Some(Err(payload))` when it
    /// panicked.
    ///
    /// # Panics
    /// If the coroutine is running (a coroutine cannot resume itself or a
    /// coroutine that resumed it) or has finished.
    pub(super) fn resume(&self) -> Option<thread::Result<()>> {
        let c = &*self.0;
        assert!(
            matches!(c.state.get(), State::Fresh | State::Suspended),
            "resumed a coroutine that is {:?}",
            c.state.get()
        );
        c.state.set(State::Running);
        // SAFETY: `sp` is the initial frame or the context the coroutine
        // saved when it suspended; the state check above lets each saved
        // context be loaded once.
        unsafe { switch(c.resumer.as_ptr(), c.sp.get()) };
        match c.state.get() {
            State::Finished => c.outcome.take(),
            _ => None,
        }
    }

    /// Suspend the running coroutine: return control to the
    /// [`Coro::resume`] that ran it, and continue here at the next resume.
    ///
    /// # Panics
    /// If the coroutine is not running.
    pub(super) fn suspend(&self) {
        let c = &*self.0;
        assert_eq!(c.state.get(), State::Running, "suspended a coroutine that is not running");
        c.state.set(State::Suspended);
        // SAFETY: `resumer` was saved by the `resume` that set `Running`
        // and is loaded only here or at the body's end.
        unsafe { switch(c.sp.as_ptr(), c.resumer.get()) };
    }
}

impl Drop for Coro {
    fn drop(&mut self) {
        match self.0.state.get() {
            State::Fresh | State::Finished => {
                // SAFETY: no frame lives on the stack.
                unsafe { munmap(self.0.stack.base, self.0.stack.len) };
            }
            // Frames that will never run again still live on the stack, and
            // a pinned value among them may be pointed at from elsewhere:
            // leave it mapped (a leak, never a dangling pointer).
            State::Suspended => {}
            State::Running => {
                eprintln!("a coroutine was dropped while it was running");
                std::process::abort();
            }
        }
    }
}

/// First Rust frame on a coroutine's stack: runs the body, records how it
/// ended, and switches back for good.
extern "C" fn coro_main(inner: *const Inner) -> ! {
    // SAFETY: `inner` is the boxed control block, which `Drop` frees only
    // once the body has finished or while the coroutine can never run again.
    let c = unsafe { &*inner };
    let body = c.body.take().expect("a coroutine's body runs once");
    c.outcome.set(Some(panic::catch_unwind(AssertUnwindSafe(body))));
    c.state.set(State::Finished);
    // SAFETY: as in `suspend`; the saved context is never loaded, because
    // `resume` refuses a finished coroutine.
    unsafe { switch(c.sp.as_ptr(), c.resumer.get()) };
    std::process::abort()
}

/// Save the callee-saved state on the current stack, store the stack
/// pointer to `*save`, load `load` and restore the state saved there.
///
/// # Safety
/// `save` must be valid for a write, and `load` must be a stack pointer
/// stored by an earlier `switch` (or the initial frame of [`Coro::new`])
/// whose stack is still mapped and which has not been loaded before.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, load: usize) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr dword ptr [rsp]",
        "fnstcw word ptr [rsp + 4]",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr dword ptr [rsp]",
        "fldcw word ptr [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new coroutine's first `switch` returns to: call `r12(rbx)`
/// (`coro_main`, which never returns) with the stack 16-byte aligned.
///
/// # Safety
/// Never called: only the initial frame of [`Coro::new`] returns into it,
/// with `r12` and `rbx` set from that frame.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::OnceCell;
    use std::rc::Rc;

    #[test]
    fn resume_and_suspend_interleave() {
        let log = Rc::new(Cell::new(0u32));
        let slot: Rc<OnceCell<Coro>> = Rc::new(OnceCell::new());
        let (log2, me) = (Rc::clone(&log), Rc::clone(&slot));
        let co = slot.get_or_init(|| {
            Coro::new(Box::new(move || {
                for i in 1..=3 {
                    log2.set(log2.get() * 10 + i);
                    me.get().expect("set before the first resume").suspend();
                }
            }))
        });
        for expect in [1, 12, 123] {
            assert!(co.resume().is_none());
            assert_eq!(log.get(), expect);
        }
        assert!(matches!(co.resume(), Some(Ok(()))));
    }

    #[test]
    fn panic_payload_returns_to_the_resumer() {
        let co = Coro::new(Box::new(|| panic!("inside")));
        let err = co.resume().unwrap().unwrap_err();
        assert_eq!(err.downcast_ref::<&str>(), Some(&"inside"));
    }

    #[test]
    #[should_panic(expected = "resumed a coroutine that is Finished")]
    fn a_finished_coroutine_cannot_be_resumed() {
        let co = Coro::new(Box::new(|| {}));
        assert!(matches!(co.resume(), Some(Ok(()))));
        co.resume();
    }
}
