// Every leaf has a writer outside its struct's `impl Default`.
pub struct PortConfig {
    /// Field init in a literal.
    pub mtu: u32,
    /// Shorthand in a literal.
    pub hdr_bytes: u32,
    /// `.f =` on some receiver.
    pub line_rate: f64,
    /// Compound assignment.
    pub retries: u32,
    /// A nested config is not a leaf; its leaves are judged below.
    pub link: LinkConfig,
}

pub struct LinkConfig {
    pub delay: u64,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            mtu: 4096,
            hdr_bytes: 58,
            line_rate: 25.0,
            retries: 7,
            link: LinkConfig::default(),
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { delay: 500 }
    }
}

// Not a `pub` config: out of scope.
struct PrivateConfig {
    unused: u32,
}

impl PortConfig {
    pub fn jumbo() -> Self {
        Self {
            mtu: 9000,
            ..Self::default()
        }
    }
}

fn build(hdr_bytes: u32) -> PortConfig {
    let mut c = PortConfig {
        hdr_bytes,
        ..Default::default()
    };
    c.line_rate = 100.0;
    c.retries += 1;
    c.link.delay = 250;
    c
}

fn arrow_is_not_a_literal() -> PortConfig {
    PortConfig::default()
}
