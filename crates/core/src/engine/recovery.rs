//! Batch copier mode — step two of the two-step recovery the paper
//! proposes in §3.2.
//!
//! "In the second step the recovering site begins to issue copier
//! transactions in a 'batch' mode. Copier transactions are generated even
//! though no transactions have arrived on the recovering site with a read
//! request for any of the remaining out-of-date copies."

use std::collections::HashMap;

use crate::ids::{ItemId, SiteId};
use crate::messages::Message;
use crate::trace::EventKind;

use super::{Output, RefreshMode, SiteEngine, TimerId};

impl SiteEngine {
    /// A batch-copier round fires: proactively refresh up to
    /// `batch_size` stale items.
    pub(super) fn on_batch_copier(&mut self, out: &mut Vec<Output>) {
        self.refresh = RefreshMode::Batch { armed: false };
        if !self.standalone_copiers.is_empty() {
            return; // a round is already in flight
        }

        let me = self.id();
        let batch_size = self
            .config
            .two_step_recovery
            .map(|t| t.batch_size)
            .unwrap_or(0) as usize;
        // Walk our stale copies from the table's low-water mark, lowest
        // ids first, and stop at `batch_size` sourceable ones: a round
        // costs what it selects, not what the table holds. Group the
        // selection by refresh source.
        self.faillocks.advance_low_water(me);
        let mut groups: HashMap<SiteId, Vec<ItemId>> = HashMap::new();
        let sourceable = self
            .faillocks
            .locked_from_low_water(me)
            .filter_map(|item| Some((self.up_to_date_source(item)?, item)))
            .take(batch_size);
        for (src, item) in sourceable {
            groups.entry(src).or_default().push(item);
        }

        if groups.is_empty() {
            // Stalled: nothing refreshable right now (e.g. every source
            // is down). Do not re-arm; `maybe_rearm_batch` fires when the
            // vector changes.
            return;
        }
        for (target, items) in groups {
            let req = self.fresh_req();
            self.standalone_copiers.insert(req, (target, items.clone()));
            self.metrics.copier_requests += 1;
            self.tracer.emit(None, EventKind::CopierRequest { target });
            self.send_unattributed(target, Message::CopyRequest { req, items }, out);
            out.push(Output::SetTimer(TimerId::CopierTimeout(req)));
        }
    }

    /// A standalone copier finished (successfully or not): schedule the
    /// next round if stale items remain.
    pub(super) fn continue_batch_recovery(&mut self, out: &mut Vec<Output>) {
        if !self.standalone_copiers.is_empty() {
            return; // wait for the rest of this round
        }
        match self.refresh {
            RefreshMode::Batch { armed: false } if self.own_stale_count() > 0 => {
                self.refresh = RefreshMode::Batch { armed: true };
                out.push(Output::SetTimer(TimerId::BatchCopier));
            }
            _ => {}
        }
    }

    /// The session vector changed (a site recovered): a stalled batch
    /// round may be able to make progress again.
    pub(super) fn maybe_rearm_batch(&mut self, out: &mut Vec<Output>) {
        if let RefreshMode::Batch { armed: false } = self.refresh {
            if self.standalone_copiers.is_empty() && self.own_stale_count() > 0 {
                self.refresh = RefreshMode::Batch { armed: true };
                out.push(Output::SetTimer(TimerId::BatchCopier));
            }
        }
    }
}
