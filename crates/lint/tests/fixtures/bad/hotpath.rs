//! Kernel hot-path regression fixture: string-keyed metric bumps that D008
//! must flag, plus one pragma'd site.
pub fn bump_everything(reg: &mut Registry) {
    reg.inc(&format!("reboots_begun_{suffix}"));
    reg.counter(&format!("decisions_{kind}"));
    // urb-lint: allow(D008) — report-time key, built once per run off the hot path.
    reg.add(&format!("summary_{kind}"), 1);
}
