//! Known-bad fixture: a data structure embedding adaptive-policy state and
//! branching on the configured policy instead of leaving tuning to the
//! offload layer. Mentions of Backoff in comments or strings must not
//! count.

use crate::offload::policy::Backoff;

pub struct Widget {
    idle: Backoff,
}

impl Widget {
    pub fn tune(&mut self, m: &Machine) -> bool {
        // the name "Backoff" in a comment or string is fine:
        let label = "Backoff";
        let _ = label;
        m.config().policy == Policy::Adaptive
    }

    pub fn serve(&self, batch: &mut Vec<(usize, Request)>) {
        sort_batch(batch);
        let _ = coalesce_run_len(batch, 0, &[]);
    }
}
