//! Known-bad fixture: raw `Ram` access outside an accessor module.

use nmp_sim::{Addr, Ram};

pub fn peek(ram: &Ram, addr: Addr) -> u64 {
    // untimed read, invisible to the race detector — must be flagged
    ram.read_u64(addr)
}

pub fn poke(ram: &Ram, addr: Addr, w: u64) {
    ram.write_u64(addr, w);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_access_in_tests_is_fine() {
        let ram = Ram::new(4096);
        ram.write_u64(0, 7);
        assert_eq!(ram.read_u64(0), 7);
    }
}
