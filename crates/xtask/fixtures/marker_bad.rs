//! Known-bad fixture: silencing the lint by declaring yourself an accessor
//! module in a file the allow-list does not sanction.

// xtask: accessor-module — nice try

use nmp_sim::{Addr, Ram};

pub fn peek(ram: &Ram, addr: Addr) -> u64 {
    ram.read_u64(addr)
}
