//! Nominal session vectors (paper §1.1, §1.2).
//!
//! A *session number* identifies one continuous operational period of a
//! site. A *nominal session vector* held by site *i* records, for every
//! site, the session number *i* currently perceives and the site's
//! perceived state. Only sites the vector shows as operational participate
//! in the ROWAA protocol.

use crate::ids::{SessionNumber, SiteId};

/// Perceived state of a site (paper §1.2: "site is up, site is down, site
/// is waiting to recover, and site is terminating").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteStatus {
    /// Operational: processing transactions.
    Up,
    /// Failed: not participating in any system action.
    Down,
    /// Running a type-1 control transaction; not yet serving transactions.
    WaitingToRecover,
    /// Shutting down permanently.
    Terminating,
}

impl SiteStatus {
    /// True only for [`SiteStatus::Up`].
    pub fn is_up(self) -> bool {
        matches!(self, SiteStatus::Up)
    }
}

/// One per-site record within a nominal session vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRecord {
    /// Perceived session number.
    pub session: SessionNumber,
    /// Perceived status.
    pub status: SiteStatus,
}

/// A nominal session vector: one [`SiteRecord`] per site in the system.
///
/// ```
/// use miniraid_core::session::SessionVector;
/// use miniraid_core::{SessionNumber, SiteId};
///
/// let mut vector = SessionVector::new(3);
/// assert_eq!(vector.up_count(), 3);
///
/// // A type-2 control transaction marks a failed site down ...
/// vector.apply_failure_announcement(SiteId(1), SessionNumber(1));
/// assert_eq!(vector.operational_peers(SiteId(0)), vec![SiteId(2)]);
///
/// // ... and a type-1 recovery announcement brings it back in a new
/// // session; stale failure announcements are then ignored.
/// vector.apply_recovery_announcement(SiteId(1), SessionNumber(2));
/// assert!(!vector.apply_failure_announcement(SiteId(1), SessionNumber(1)));
/// assert!(vector.is_up(SiteId(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionVector {
    records: Vec<SiteRecord>,
}

impl SessionVector {
    /// A fresh vector: every site up, in its first session.
    pub fn new(n_sites: usize) -> Self {
        SessionVector {
            records: vec![
                SiteRecord {
                    session: SessionNumber::FIRST,
                    status: SiteStatus::Up,
                };
                n_sites
            ],
        }
    }

    /// Number of sites covered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the vector covers no sites (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for one site.
    pub fn record(&self, site: SiteId) -> SiteRecord {
        self.records[site.index()]
    }

    /// Perceived session number of a site.
    pub fn session(&self, site: SiteId) -> SessionNumber {
        self.records[site.index()].session
    }

    /// Perceived status of a site.
    pub fn status(&self, site: SiteId) -> SiteStatus {
        self.records[site.index()].status
    }

    /// True if the vector shows `site` operational.
    pub fn is_up(&self, site: SiteId) -> bool {
        self.status(site).is_up()
    }

    /// Sites currently perceived operational, in id order.
    pub fn operational_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.status.is_up())
            .map(|(i, _)| SiteId(i as u8))
    }

    /// Sites perceived operational, excluding `me` (the 2PC participant
    /// set of a coordinating site).
    pub fn operational_peers(&self, me: SiteId) -> Vec<SiteId> {
        self.operational_sites().filter(|s| *s != me).collect()
    }

    /// Number of operational sites.
    pub fn up_count(&self) -> usize {
        self.records.iter().filter(|r| r.status.is_up()).count()
    }

    /// Mark `site` down, keeping its session number (the session during
    /// which it was last seen operational). Returns true if the status
    /// actually changed.
    pub fn mark_down(&mut self, site: SiteId) -> bool {
        let rec = &mut self.records[site.index()];
        if rec.status != SiteStatus::Down {
            rec.status = SiteStatus::Down;
            true
        } else {
            false
        }
    }

    /// Process a type-2 failure announcement for `site` observed at
    /// `session`. The announcement is ignored if we already perceive a
    /// *newer* session for the site — it must have recovered since the
    /// announcer saw it fail (this is the staleness check session numbers
    /// exist for).
    pub fn apply_failure_announcement(&mut self, site: SiteId, session: SessionNumber) -> bool {
        let rec = &mut self.records[site.index()];
        if rec.session > session {
            return false;
        }
        if rec.status != SiteStatus::Down {
            rec.status = SiteStatus::Down;
            true
        } else {
            false
        }
    }

    /// Process a type-1 recovery announcement: `site` is entering
    /// `session`. Only moves forward (newer sessions win).
    pub fn apply_recovery_announcement(&mut self, site: SiteId, session: SessionNumber) -> bool {
        let rec = &mut self.records[site.index()];
        if session >= rec.session {
            rec.session = session;
            rec.status = SiteStatus::Up;
            true
        } else {
            false
        }
    }

    /// Set one record outright (used when installing state during CT1).
    pub fn set_record(&mut self, site: SiteId, record: SiteRecord) {
        self.records[site.index()] = record;
    }

    /// Merge a vector received during recovery: adopt the received record
    /// for every site whose received session is newer than ours, except
    /// `me`, whose record the recovering site owns.
    ///
    /// At an *equal* session the received record wins only if it moves
    /// the site away from `Up`: within one session the only legal
    /// transition is up → down, so "down under session s" is strictly
    /// newer knowledge than "up under session s". The reverse adoption
    /// would let a stale responder — e.g. one that was falsely excluded
    /// and does not know it — resurrect an excluded site in the
    /// recovering site's vector.
    pub fn install_from(&mut self, received: &SessionVector, me: SiteId) {
        for i in 0..self.records.len() {
            if i == me.index() {
                continue;
            }
            let (ours, theirs) = (self.records[i], received.records[i]);
            let newer = theirs.session > ours.session
                || (theirs.session == ours.session
                    && ours.status == SiteStatus::Up
                    && theirs.status != SiteStatus::Up);
            if newer {
                self.records[i] = theirs;
            }
        }
    }

    /// Snapshot of perceived session numbers, carried by transactions so
    /// participants can detect status changes mid-execution.
    pub fn session_snapshot(&self) -> Vec<SessionNumber> {
        self.records.iter().map(|r| r.session).collect()
    }

    /// Bitmap of operational sites (bit `s` = site `s` up), carried by
    /// `CopyUpdate` so all participants of a commit run the identical
    /// fail-lock maintenance regardless of their own vectors' state.
    pub fn up_mask(&self) -> u64 {
        let mut mask = 0u64;
        for (i, r) in self.records.iter().enumerate() {
            if r.status == SiteStatus::Up {
                mask |= 1u64 << i;
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vector_is_all_up_first_session() {
        let v = SessionVector::new(4);
        assert_eq!(v.len(), 4);
        assert_eq!(v.up_count(), 4);
        for i in 0..4 {
            assert_eq!(v.session(SiteId(i)), SessionNumber::FIRST);
            assert!(v.is_up(SiteId(i)));
        }
    }

    #[test]
    fn mark_down_and_peers() {
        let mut v = SessionVector::new(4);
        assert!(v.mark_down(SiteId(2)));
        assert!(!v.mark_down(SiteId(2)));
        assert_eq!(v.up_count(), 3);
        assert_eq!(v.operational_peers(SiteId(0)), vec![SiteId(1), SiteId(3)]);
        assert_eq!(
            v.operational_sites().collect::<Vec<_>>(),
            vec![SiteId(0), SiteId(1), SiteId(3)]
        );
    }

    #[test]
    fn stale_failure_announcement_is_ignored() {
        let mut v = SessionVector::new(2);
        // Site 1 recovers into session 2.
        assert!(v.apply_recovery_announcement(SiteId(1), SessionNumber(2)));
        // An old failure announcement from session 1 must not mark it down.
        assert!(!v.apply_failure_announcement(SiteId(1), SessionNumber(1)));
        assert!(v.is_up(SiteId(1)));
        // A current one does.
        assert!(v.apply_failure_announcement(SiteId(1), SessionNumber(2)));
        assert!(!v.is_up(SiteId(1)));
    }

    #[test]
    fn stale_recovery_announcement_is_ignored() {
        let mut v = SessionVector::new(2);
        v.apply_recovery_announcement(SiteId(1), SessionNumber(5));
        assert!(!v.apply_recovery_announcement(SiteId(1), SessionNumber(3)));
        assert_eq!(v.session(SiteId(1)), SessionNumber(5));
    }

    #[test]
    fn install_from_takes_newer_records_but_preserves_self() {
        let mut mine = SessionVector::new(3);
        mine.mark_down(SiteId(1));
        mine.set_record(
            SiteId(0),
            SiteRecord {
                session: SessionNumber(7),
                status: SiteStatus::WaitingToRecover,
            },
        );
        let mut theirs = SessionVector::new(3);
        theirs.apply_recovery_announcement(SiteId(1), SessionNumber(4));
        theirs.set_record(
            SiteId(0),
            SiteRecord {
                session: SessionNumber(6),
                status: SiteStatus::Up,
            },
        );
        mine.install_from(&theirs, SiteId(0));
        // Self record untouched.
        assert_eq!(mine.session(SiteId(0)), SessionNumber(7));
        assert_eq!(mine.status(SiteId(0)), SiteStatus::WaitingToRecover);
        // Site 1 adopted (newer session).
        assert_eq!(mine.session(SiteId(1)), SessionNumber(4));
        assert!(mine.is_up(SiteId(1)));
    }

    #[test]
    fn install_from_same_session_down_dominates_up() {
        // We know site 1 was excluded under session 1; a responder that
        // still believes it is up (it may BE that falsely excluded site)
        // must not resurrect it.
        let mut mine = SessionVector::new(3);
        mine.mark_down(SiteId(1));
        let theirs = SessionVector::new(3); // all up under session 1
        mine.install_from(&theirs, SiteId(0));
        assert!(!mine.is_up(SiteId(1)), "stale responder resurrected site 1");

        // The reverse direction is real knowledge: the responder saw a
        // failure under the session we still believe is up.
        let mut mine = SessionVector::new(3);
        let mut theirs = SessionVector::new(3);
        theirs.mark_down(SiteId(2));
        mine.install_from(&theirs, SiteId(0));
        assert!(!mine.is_up(SiteId(2)), "same-session failure not adopted");
    }

    #[test]
    fn snapshot_lists_sessions_in_order() {
        let mut v = SessionVector::new(3);
        v.apply_recovery_announcement(SiteId(2), SessionNumber(9));
        assert_eq!(
            v.session_snapshot(),
            vec![SessionNumber(1), SessionNumber(1), SessionNumber(9)]
        );
    }
}
