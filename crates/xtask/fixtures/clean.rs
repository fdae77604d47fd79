//! Known-good fixture: everything the lint checks for, done the
//! sanctioned way. `check_source` must return no violations for this file
//! under a data-structure path.

use hybrids::publist::{NmpExec, OpCode, Request, Response};
use nmp_sim::{EffectSpec, ThreadCtx};

/// Mentions in docs are fine: ram.read_u64, Ordering::SeqCst, mmio_write_u64.
pub struct Covered;

impl NmpExec for Covered {
    type SlotState = ();

    fn exec(&self, ctx: &mut ThreadCtx, _part: usize, req: &Request, _s: &mut ()) -> Response {
        match req.op_code() {
            OpCode::Read => {
                let w = ctx.read_u64(req.key as u64 as u32);
                Response::ok_value(w as u32)
            }
            OpCode::Insert => {
                ctx.write_u64_release(req.key, req.value as u64);
                Response::ok_value(0)
            }
            _ => Response::fail(),
        }
    }

    fn effect_spec(&self) -> EffectSpec {
        EffectSpec::new("covered")
            .op(hybrids::effects::protocol_op(OpCode::Read, "Read"))
            .op(hybrids::effects::protocol_op(OpCode::Insert, "Insert"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmp_sim::Ram;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn tests_may_do_anything() {
        let ram = Ram::new(4096);
        ram.write_u64(0, 1);
        let flag = AtomicU64::new(0);
        flag.store(ram.read_u64(0), Ordering::Release);
        assert_eq!(flag.load(Ordering::Acquire), 1);
    }
}
