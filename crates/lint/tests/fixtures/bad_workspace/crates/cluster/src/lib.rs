//! Bad-workspace member: a string-keyed metric bump on the hot path (D008).
pub fn arm(reg: &mut Registry) {
    reg.inc(&format!("polls_{node}"));
}

/// A sweep that touches every node outside dispatch (S004).
pub fn sweep(world: &mut World) {
    for i in 0..world.nodes.len() {
        world.nodes[i].poke();
    }
}
