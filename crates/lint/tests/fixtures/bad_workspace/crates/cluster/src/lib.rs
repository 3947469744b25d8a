//! Bad-workspace member: a string-keyed metric bump on the hot path (D008).
pub fn arm(reg: &mut Registry) {
    reg.inc(&format!("polls_{node}"));
}
