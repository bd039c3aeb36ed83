/// Message and byte counters for a link or an aggregate.
///
/// The paper's Figures 4–6 are all derived from counters like these: how
/// many location updates crossed the air interface, in total and per region.
///
/// # Examples
///
/// ```
/// use mobigrid_wireless::TrafficMeter;
///
/// let mut m = TrafficMeter::new();
/// m.count(32);
/// m.count(32);
/// assert_eq!(m.messages(), 2);
/// assert_eq!(m.bytes(), 64);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficMeter {
    messages: u64,
    bytes: u64,
}

impl TrafficMeter {
    /// Creates a zeroed meter.
    #[must_use]
    pub fn new() -> Self {
        TrafficMeter::default()
    }

    /// Records one message of `bytes` length.
    pub fn count(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }

    /// Messages recorded.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Bytes recorded.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut m = TrafficMeter::new();
        m.count(10);
        m.count(22);
        assert_eq!(m.messages(), 2);
        assert_eq!(m.bytes(), 32);
    }
}
