//! 64-bit FNV-1a digest of a job's outputs.

pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Digest {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Length-terminate each field so ("ab", "c") and ("a", "bc") differ.
        self.u64(b.len() as u64)
    }

    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.bytes(s.as_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        for x in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// The exact bit pattern of each value.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Digest {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
