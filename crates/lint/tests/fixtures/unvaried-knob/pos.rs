// Knobs nothing but their own `impl Default` sets.
pub struct PortConfig {
    /// Varied by the named constructor below.
    pub mtu: u32,
    /// Only the `Default` literal sets it.
    pub hdr_bytes: u32,
    /// Only a `.f =` inside `impl Default for PortConfig` sets it.
    pub line_rate: f64,
    pub nested: LinkConfig,
}

pub struct LinkConfig {
    /// Written inside `PortConfig`'s Default, which varies it.
    pub delay: u64,
    /// Only `LinkConfig`'s own Default sets it.
    pub jitter: f64,
}

impl Default for PortConfig {
    fn default() -> Self {
        let mut c = PortConfig {
            mtu: 4096,
            hdr_bytes: 58,
            line_rate: 0.0,
            nested: LinkConfig {
                delay: 250,
                ..Default::default()
            },
        };
        c.line_rate = 25.0;
        c
    }
}

impl Default for LinkConfig {
    fn default() -> LinkConfig {
        Self {
            delay: 500,
            jitter: 0.05,
        }
    }
}

impl PortConfig {
    pub fn jumbo() -> PortConfig {
        Self {
            mtu: 9000,
            ..Self::default()
        }
    }

    /// Reads are not writers.
    pub fn wire(&self, payload: u32) -> u32 {
        if self.hdr_bytes == payload {
            0
        } else {
            payload + self.hdr_bytes
        }
    }
}
