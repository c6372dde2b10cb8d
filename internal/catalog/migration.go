// Live shard migration records (history: the live-migration entry of
// CHANGES.md): catalog operations to move a shard between repositories and
// to split or merge range partitions while queries run. A migration is a
// small state machine whose resting states live in the catalog, so every
// phase transition is one catalog version bump and the prepared-plan cache
// invalidates for free:
//
//	declared -> copying -> dual-read -> cutover -> (record removed)
//	                   \-> cutover (merge skips dual-read)
//	any pre-cutover state -> aborted -> (record removed after cleanup)
//
// The catalog only records state; the copy/cleanup work and the phase driver
// live in internal/core. Placement itself changes exactly once, at cutover,
// by swapping in a deep-cloned MetaExtent — readers hold *MetaExtent without
// locks, so the old struct must stay immutable for in-flight queries.
package catalog

import (
	"fmt"

	"disco/internal/algebra"
	"disco/internal/types"
)

// Migration kinds.
const (
	// MigrateMove relocates one shard's rows from repository From to To.
	MigrateMove = "move"
	// MigrateSplit divides From's range at SplitAt; rows >= SplitAt move to
	// the new shard at To.
	MigrateSplit = "split"
	// MigrateMerge folds shard From's range into the adjacent shard To.
	MigrateMerge = "merge"
)

// Migration phases. Each is a resting state a crash can leave behind; the
// driver in internal/core resumes or aborts from any of them.
const (
	// PhaseDeclared: the migration is registered; no data has moved.
	PhaseDeclared = "declared"
	// PhaseCopying: rows are being copied to To. The copy is idempotent
	// (clear-then-load), so a crash here re-runs the copy.
	PhaseCopying = "copying"
	// PhaseDualRead: the copy finished; reads consult both placements,
	// distinct-fused, so a stale or dead new copy cannot lose or duplicate
	// rows. Move and split only — merge cuts over straight from copying.
	PhaseDualRead = "dual-read"
	// PhaseCutover: placement has swapped to the new layout; only source-side
	// cleanup (clearing moved-away rows) remains before the record is
	// removed.
	PhaseCutover = "cutover"
	// PhaseAborted: the migration was abandoned before cutover; placement
	// never changed. The record is kept until cleanup wipes any partial copy,
	// then removed so the migration can be retried.
	PhaseAborted = "aborted"
)

// Migration is one live placement change for one extent. At most one
// migration per extent may be in flight.
type Migration struct {
	// Extent names the migrating extent.
	Extent string
	// Kind is MigrateMove, MigrateSplit or MigrateMerge.
	Kind string
	// From is the shard's current primary repository. For merge it is the
	// shard being absorbed.
	From string
	// To is the destination repository. For merge it is the surviving
	// adjacent shard's primary.
	To string
	// SplitAt is the split point for MigrateSplit (rows >= SplitAt move to
	// To); nil otherwise. The bound is inclusive-below like every range
	// bound: after the split From holds [Lo, SplitAt) and To holds
	// [SplitAt, Hi).
	SplitAt types.Value
	// Phase is the current resting state.
	Phase string
}

// DualRead reports whether reads of the migrating shard must consult both
// the old and the new placement.
func (m *Migration) DualRead() bool { return m.Phase == PhaseDualRead }

// validKind reports whether k names a migration kind.
func validKind(k string) bool {
	return k == MigrateMove || k == MigrateSplit || k == MigrateMerge
}

// validPhase reports whether p names a resting state.
func validPhase(p string) bool {
	switch p {
	case PhaseDeclared, PhaseCopying, PhaseDualRead, PhaseCutover, PhaseAborted:
		return true
	}
	return false
}

// sameTarget reports whether two migrations describe the same placement
// change (used to let Begin retry an aborted migration).
func sameTarget(a, b *Migration) bool {
	if a.Extent != b.Extent || a.Kind != b.Kind || a.From != b.From || a.To != b.To {
		return false
	}
	if (a.SplitAt == nil) != (b.SplitAt == nil) {
		return false
	}
	return a.SplitAt == nil || a.SplitAt.Equal(b.SplitAt)
}

// BeginMigration registers a migration in phase declared after validating it
// against current placement. An aborted migration for the same extent with
// the same parameters is replaced (retry); any other in-flight migration for
// the extent is an error.
func (c *Catalog) BeginMigration(mig *Migration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !validKind(mig.Kind) {
		return fmt.Errorf("catalog: unknown migration kind %q", mig.Kind)
	}
	me, ok := c.extents[mig.Extent]
	if !ok {
		return &ErrNotFound{Kind: "extent", Name: mig.Extent}
	}
	if _, ok := c.repos[mig.From]; !ok {
		return &ErrNotFound{Kind: "repository", Name: mig.From}
	}
	if _, ok := c.repos[mig.To]; !ok {
		return &ErrNotFound{Kind: "repository", Name: mig.To}
	}
	if prev, dup := c.migrations[mig.Extent]; dup {
		if prev.Phase != PhaseAborted || !sameTarget(prev, mig) {
			return fmt.Errorf("catalog: extent %q already has a %s migration in phase %s", mig.Extent, prev.Kind, prev.Phase)
		}
		// Retrying an aborted migration: fall through and replace the record.
	}
	if p, ok := me.PrimaryFor(mig.From); !ok || p != mig.From {
		return fmt.Errorf("catalog: migration source %q is not a partition primary of extent %q", mig.From, mig.Extent)
	}
	switch mig.Kind {
	case MigrateMove, MigrateSplit:
		if me.HasPartition(mig.To) {
			return fmt.Errorf("catalog: migration target %q already holds extent %q", mig.To, mig.Extent)
		}
	case MigrateMerge:
		if p, ok := me.PrimaryFor(mig.To); !ok || p != mig.To {
			return fmt.Errorf("catalog: merge target %q is not a partition primary of extent %q", mig.To, mig.Extent)
		}
		if mig.To == mig.From {
			return fmt.Errorf("catalog: merge of shard %q into itself", mig.From)
		}
	}
	if mig.Kind == MigrateSplit || mig.Kind == MigrateMerge {
		if me.Scheme == nil || me.Scheme.Kind != algebra.PartRange {
			return fmt.Errorf("catalog: %s requires a range-partitioned extent", mig.Kind)
		}
	}
	switch mig.Kind {
	case MigrateMove:
		if mig.SplitAt != nil {
			return fmt.Errorf("catalog: move takes no split point")
		}
	case MigrateSplit:
		if mig.SplitAt == nil {
			return fmt.Errorf("catalog: split requires a split point")
		}
		r := me.Scheme.Ranges[partitionIndex(me, mig.From)]
		if r.Lo != nil {
			c, err := types.Compare(mig.SplitAt, r.Lo)
			if err != nil || c <= 0 {
				return fmt.Errorf("catalog: split point %s is not strictly inside shard range %s", mig.SplitAt, r)
			}
		}
		if r.Hi != nil {
			c, err := types.Compare(mig.SplitAt, r.Hi)
			if err != nil || c >= 0 {
				return fmt.Errorf("catalog: split point %s is not strictly inside shard range %s", mig.SplitAt, r)
			}
		}
	case MigrateMerge:
		if mig.SplitAt != nil {
			return fmt.Errorf("catalog: merge takes no split point")
		}
		i := partitionIndex(me, mig.From)
		j := partitionIndex(me, mig.To)
		lo, hi := i, j
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi != lo+1 || !adjacentBounds(me.Scheme.Ranges[lo], me.Scheme.Ranges[hi]) {
			return fmt.Errorf("catalog: merge shards %q and %q are not adjacent ranges", mig.From, mig.To)
		}
	}
	rec := *mig
	rec.Phase = PhaseDeclared
	if _, dup := c.migrations[mig.Extent]; !dup {
		c.migOrder = append(c.migOrder, mig.Extent)
	}
	c.migrations[mig.Extent] = &rec
	c.version++
	return nil
}

// partitionIndex returns repo's index in the extent's partition list, or -1.
// Callers hold c.mu.
func partitionIndex(m *MetaExtent, repo string) int {
	for i, p := range m.Partitions() {
		if p == repo {
			return i
		}
	}
	return -1
}

// adjacentBounds reports whether the earlier range's upper bound meets the
// later range's lower bound exactly.
func adjacentBounds(a, b algebra.RangeBound) bool {
	return a.Hi != nil && b.Lo != nil && a.Hi.Equal(b.Lo)
}

// SetMigrationPhase advances a migration between non-cutover resting states.
// Legal transitions: declared->copying, copying->dual-read (move and split
// only). Cutover goes through CutoverMigration (it swaps placement), abort
// through AbortMigration.
func (c *Catalog) SetMigrationPhase(extent, phase string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mig, ok := c.migrations[extent]
	if !ok {
		return &ErrNotFound{Kind: "migration", Name: extent}
	}
	legal := false
	switch {
	case mig.Phase == PhaseDeclared && phase == PhaseCopying:
		legal = true
	case mig.Phase == PhaseCopying && phase == PhaseDualRead:
		legal = mig.Kind != MigrateMerge
	}
	if !legal {
		return fmt.Errorf("catalog: migration of %q cannot go %s -> %s", extent, mig.Phase, phase)
	}
	mig.Phase = phase
	c.version++
	return nil
}

// AbortMigration abandons a migration before cutover. Placement never
// changed, so queries are unaffected; the record stays in phase aborted
// until ClearMigration, marking that a partial copy may need cleanup and
// letting BeginMigration retry the same change.
func (c *Catalog) AbortMigration(extent string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mig, ok := c.migrations[extent]
	if !ok {
		return &ErrNotFound{Kind: "migration", Name: extent}
	}
	switch mig.Phase {
	case PhaseCutover:
		return fmt.Errorf("catalog: migration of %q is past cutover and can no longer abort", extent)
	case PhaseAborted:
		return nil
	}
	mig.Phase = PhaseAborted
	c.version++
	return nil
}

// CutoverMigration swaps placement to the post-migration layout and sets the
// phase to cutover. The swap installs a deep-cloned MetaExtent so in-flight
// queries holding the old struct keep a consistent snapshot. From cutover the
// new layout is authoritative; only cleanup remains before FinishMigration.
func (c *Catalog) CutoverMigration(extent string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mig, ok := c.migrations[extent]
	if !ok {
		return &ErrNotFound{Kind: "migration", Name: extent}
	}
	switch {
	case mig.Phase == PhaseDualRead && mig.Kind != MigrateMerge:
	case mig.Phase == PhaseCopying && mig.Kind == MigrateMerge:
	default:
		return fmt.Errorf("catalog: migration of %q cannot cut over from phase %s", extent, mig.Phase)
	}
	me := c.extents[extent]
	if me == nil {
		return &ErrNotFound{Kind: "extent", Name: extent}
	}
	clone := cloneExtent(me)
	switch mig.Kind {
	case MigrateMove:
		cutoverMove(clone, mig)
	case MigrateSplit:
		cutoverSplit(clone, mig)
	case MigrateMerge:
		cutoverMerge(clone, mig)
	}
	c.extents[extent] = clone
	mig.Phase = PhaseCutover
	c.version++
	return nil
}

// cloneExtent deep-copies a MetaExtent so the original stays immutable for
// readers that captured it before the cutover.
func cloneExtent(m *MetaExtent) *MetaExtent {
	clone := *m
	clone.Repositories = append([]string(nil), m.Repositories...)
	if m.Replicas != nil {
		clone.Replicas = make([][]string, len(m.Replicas))
		for i, g := range m.Replicas {
			clone.Replicas[i] = append([]string(nil), g...)
		}
	}
	if m.Scheme != nil {
		s := *m.Scheme
		s.Ranges = append([]algebra.RangeBound(nil), m.Scheme.Ranges...)
		clone.Scheme = &s
	}
	if m.AttrMap != nil {
		clone.AttrMap = make(map[string]string, len(m.AttrMap))
		for k, v := range m.AttrMap {
			clone.AttrMap[k] = v
		}
	}
	return &clone
}

func cutoverMove(clone *MetaExtent, mig *Migration) {
	if !clone.Partitioned() {
		clone.Repository = mig.To
		if clone.Replicas != nil {
			clone.Replicas = [][]string{{mig.To}}
		}
		return
	}
	i := partitionIndex(clone, mig.From)
	clone.Repositories[i] = mig.To
	if clone.Replicas != nil {
		clone.Replicas[i] = []string{mig.To}
	}
	clone.Repository = clone.Repositories[0]
}

func cutoverSplit(clone *MetaExtent, mig *Migration) {
	i := partitionIndex(clone, mig.From)
	old := clone.Scheme.Ranges[i]
	clone.Scheme.Ranges[i] = algebra.RangeBound{Lo: old.Lo, Hi: mig.SplitAt}
	clone.Scheme.Ranges = insertRange(clone.Scheme.Ranges, i+1, algebra.RangeBound{Lo: mig.SplitAt, Hi: old.Hi})
	clone.Repositories = insertString(clone.Repositories, i+1, mig.To)
	if clone.Replicas != nil {
		clone.Replicas = insertGroup(clone.Replicas, i+1, []string{mig.To})
	}
	clone.Repository = clone.Repositories[0]
}

func cutoverMerge(clone *MetaExtent, mig *Migration) {
	i := partitionIndex(clone, mig.From)
	j := partitionIndex(clone, mig.To)
	lo, hi := i, j
	if lo > hi {
		lo, hi = hi, lo
	}
	merged := algebra.RangeBound{Lo: clone.Scheme.Ranges[lo].Lo, Hi: clone.Scheme.Ranges[hi].Hi}
	clone.Scheme.Ranges[j] = merged
	clone.Scheme.Ranges = append(clone.Scheme.Ranges[:i], clone.Scheme.Ranges[i+1:]...)
	clone.Repositories = append(clone.Repositories[:i], clone.Repositories[i+1:]...)
	if clone.Replicas != nil {
		clone.Replicas = append(clone.Replicas[:i], clone.Replicas[i+1:]...)
	}
	if len(clone.Repositories) == 1 {
		// A single remaining partition must not carry a scheme (AddExtent and
		// DumpODL reject it): the extent becomes plain unpartitioned.
		clone.Repository = clone.Repositories[0]
		clone.Repositories = nil
		clone.Scheme = nil
		if clone.Replicas != nil && len(clone.Replicas) == 1 {
			// Keep the surviving group only if it actually replicates.
			if len(clone.Replicas[0]) <= 1 {
				clone.Replicas = nil
			}
		}
		return
	}
	clone.Repository = clone.Repositories[0]
}

func insertRange(s []algebra.RangeBound, i int, v algebra.RangeBound) []algebra.RangeBound {
	s = append(s, algebra.RangeBound{})
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertString(s []string, i int, v string) []string {
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertGroup(s [][]string, i int, v []string) [][]string {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// FinishMigration removes a cutover migration's record: the new placement is
// live and source-side cleanup is done (or delegated). The version bump makes
// any phase-dependent plan rewrite (the split cutover guard) recompile away.
func (c *Catalog) FinishMigration(extent string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mig, ok := c.migrations[extent]
	if !ok {
		return &ErrNotFound{Kind: "migration", Name: extent}
	}
	if mig.Phase != PhaseCutover {
		return fmt.Errorf("catalog: migration of %q cannot finish from phase %s", extent, mig.Phase)
	}
	c.removeMigrationLocked(extent)
	c.version++
	return nil
}

// ClearMigration removes an aborted migration's record after cleanup,
// letting a fresh BeginMigration start over. Clearing a missing record is a
// no-op.
func (c *Catalog) ClearMigration(extent string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	mig, ok := c.migrations[extent]
	if !ok {
		return nil
	}
	if mig.Phase != PhaseAborted {
		return fmt.Errorf("catalog: migration of %q is in phase %s, not aborted; use FinishMigration or AbortMigration", extent, mig.Phase)
	}
	c.removeMigrationLocked(extent)
	c.version++
	return nil
}

// removeMigrationLocked deletes the record; callers hold c.mu.
func (c *Catalog) removeMigrationLocked(extent string) {
	delete(c.migrations, extent)
	for i, n := range c.migOrder {
		if n == extent {
			c.migOrder = append(c.migOrder[:i], c.migOrder[i+1:]...)
			break
		}
	}
}

// RestoreMigration installs a migration record in an arbitrary resting state
// without replaying its transitions — the ODL "migrate" statement uses it so
// a DumpODL taken mid-migration round-trips. The extent declaration in the
// dump already reflects the placement for the recorded phase (pre-cutover
// layout before cutover, post-cutover layout at cutover), so no placement
// change happens here.
func (c *Catalog) RestoreMigration(mig *Migration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !validKind(mig.Kind) {
		return fmt.Errorf("catalog: unknown migration kind %q", mig.Kind)
	}
	if !validPhase(mig.Phase) {
		return fmt.Errorf("catalog: unknown migration phase %q", mig.Phase)
	}
	if mig.Kind == MigrateSplit && mig.SplitAt == nil {
		return fmt.Errorf("catalog: split migration requires a split point")
	}
	if _, ok := c.extents[mig.Extent]; !ok {
		return &ErrNotFound{Kind: "extent", Name: mig.Extent}
	}
	if _, ok := c.repos[mig.From]; !ok {
		return &ErrNotFound{Kind: "repository", Name: mig.From}
	}
	if _, ok := c.repos[mig.To]; !ok {
		return &ErrNotFound{Kind: "repository", Name: mig.To}
	}
	rec := *mig
	if _, dup := c.migrations[mig.Extent]; !dup {
		c.migOrder = append(c.migOrder, mig.Extent)
	}
	c.migrations[mig.Extent] = &rec
	c.version++
	return nil
}

// MigrationOf returns a copy of the extent's in-flight migration record.
func (c *Catalog) MigrationOf(extent string) (Migration, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	mig, ok := c.migrations[extent]
	if !ok {
		return Migration{}, false
	}
	return *mig, true
}

// Migrations returns copies of every in-flight migration record, in
// begin order.
func (c *Catalog) Migrations() []Migration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Migration, 0, len(c.migOrder))
	for _, n := range c.migOrder {
		out = append(out, *c.migrations[n])
	}
	return out
}

// IsMigrationTarget reports whether repo is the destination of an in-flight
// migration of the extent that is actively copying or dual-reading — the
// phases where the mediator submits to a repository that placement does not
// (yet) list.
func (c *Catalog) IsMigrationTarget(extent, repo string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	mig, ok := c.migrations[extent]
	if !ok || mig.To != repo {
		return false
	}
	return mig.Phase == PhaseCopying || mig.Phase == PhaseDualRead
}

// IsMigrationEndpoint reports whether repo is either end of a live
// migration record of the extent, whatever the phase. The runtime's
// routing sanity check accepts endpoint submits while the record exists:
// a plan resolved just before a cutover (or an abort's rollback) may still
// submit to the side placement no longer lists, and the record outlives
// the transition precisely until those in-flight readers have drained.
func (c *Catalog) IsMigrationEndpoint(extent, repo string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	mig, ok := c.migrations[extent]
	return ok && (mig.From == repo || mig.To == repo)
}
