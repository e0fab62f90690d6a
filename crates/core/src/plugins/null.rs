//! The empty plugin: does nothing and returns immediately.
//!
//! This is the instrument behind the paper's Table 3 row "NetBSD with our
//! Plugin Architecture": "We installed three gates which called empty
//! plugins" — it measures the pure framework overhead (flow detection +
//! indirect calls) with zero useful work.

use crate::plugin::{
    InstanceRef, PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance,
    PluginType,
};
use rp_packet::Mbuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instance that counts invocations and continues.
#[derive(Default)]
pub struct NullInstance {
    calls: AtomicU64,
}

impl NullInstance {
    /// Number of times the instance was called.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl PluginInstance for NullInstance {
    fn handle_packet(&self, _mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        // Only the owning router's thread calls an instance, so a plain
        // load and store count exactly without a locked read-modify-write.
        self.calls
            .store(self.calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        PluginAction::Continue
    }

    fn describe(&self) -> String {
        format!("null: {} calls", self.calls())
    }
}

/// The empty plugin module.
#[derive(Default)]
pub struct NullPlugin {
    _priv: (),
}

impl Plugin for NullPlugin {
    fn name(&self) -> &str {
        "null"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::STATS, 0)
    }

    fn create_instance(&mut self, _config: &str) -> Result<InstanceRef, PluginError> {
        Ok(Arc::new(NullInstance::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::mbuf::FlowIndex;

    #[test]
    fn counts_calls() {
        let inst = NullInstance::default();
        let mut m = Mbuf::new(vec![0u8; 20], 0);
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Stats,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Continue);
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Continue);
        assert_eq!(inst.calls(), 2);
        assert!(inst.describe().contains("2 calls"));
    }
}
