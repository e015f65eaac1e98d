// An upward `use`-path edge: a filesystem reaching into the framework
// above it. The manifest edge is flagged separately.
use duet::FsIntrospect;

// A waived upward reference on the next line.
// lint: allow(L1): fixture — waived upward edge
pub fn waived() -> duet::SessionId {
    unimplemented!()
}

pub struct Fs(pub u32);

impl FsIntrospect for Fs {}
