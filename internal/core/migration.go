// Live migration, the mediator side (history: the live-migration entry of
// CHANGES.md): the phase machine that moves a shard between repositories or
// splits/merges range partitions while queries keep running. The catalog
// holds the resting states; this file does the work between them — the
// idempotent copy, the cutover, and the source-side cleanup — one crash-safe
// step at a time:
//
//	declared --Advance--> copying --Advance(copy)--> dual-read
//	dual-read --Advance--> cutover --Advance(cleanup)--> record removed
//	merge: copying --Advance(copy)--> cutover (no dual-read; the absorbed
//	       shard stays authoritative until the instant placement merges)
//
// Crash-safety is by construction, not by logging: every resting state is a
// catalog version, every copy is clear-then-load (re-runnable), and the only
// placement change is the cutover's atomic clone swap. A driver killed at
// any point resumes by calling AdvanceMigration again, or walks away with
// AbortMigration — placement never changed before cutover, so queries were
// never wrong.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"disco/internal/algebra"
	"disco/internal/catalog"
	"disco/internal/physical"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// enterReadEpoch registers a query with the current reader epoch and
// returns its release. Queries enter the epoch before resolving their plan,
// so a reader counted in a post-drain epoch provably planned against the
// post-cutover catalog.
func (m *Mediator) enterReadEpoch() func() {
	slot := &m.readers[m.epoch.Load()&1]
	slot.Add(1)
	return func() { slot.Add(-1) }
}

// drainReaders opens a new reader epoch and waits for every query that
// entered under the old one to finish, so destructive cleanup below never
// races a plan resolved against the pre-cutover catalog. The wait is
// bounded by twice the evaluation deadline — no query outlives one deadline
// (withEvalDeadline attaches it unconditionally), so the bound only trips
// if something is already broken, and proceeding then is no worse than the
// race the drain exists to close.
func (m *Mediator) drainReaders(ctx context.Context) {
	old := &m.readers[(m.epoch.Add(1)-1)&1]
	deadline := time.Now().Add(2 * m.timeout)
	for old.Load() > 0 && time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// BeginShardMove registers a move of extent's shard at from to repository
// to. The migration starts in phase declared; AdvanceMigration does the
// work.
func (m *Mediator) BeginShardMove(extent, from, to string) error {
	return m.catalog.BeginMigration(&catalog.Migration{
		Extent: extent, Kind: catalog.MigrateMove, From: from, To: to,
	})
}

// BeginShardSplit registers a split of the range shard at from: rows with
// partition attribute >= at move to a new shard at repository to.
func (m *Mediator) BeginShardSplit(extent, from string, at types.Value, to string) error {
	return m.catalog.BeginMigration(&catalog.Migration{
		Extent: extent, Kind: catalog.MigrateSplit, From: from, To: to, SplitAt: at,
	})
}

// BeginShardMerge registers a merge of the range shard at from into its
// adjacent shard at to.
func (m *Mediator) BeginShardMerge(extent, from, to string) error {
	return m.catalog.BeginMigration(&catalog.Migration{
		Extent: extent, Kind: catalog.MigrateMerge, From: from, To: to,
	})
}

// AdvanceMigration performs one step of the extent's migration and returns
// the phase it rests in afterwards. done reports that the record is gone
// (the migration finished, or an aborted one finished cleanup). Steps are
// idempotent: a step that failed — or a driver that crashed mid-step — is
// retried by calling AdvanceMigration again from the same resting state.
func (m *Mediator) AdvanceMigration(ctx context.Context, extent string) (phase string, done bool, err error) {
	mig, ok := m.catalog.MigrationOf(extent)
	if !ok {
		return "", true, &catalog.ErrNotFound{Kind: "migration", Name: extent}
	}
	switch mig.Phase {
	case catalog.PhaseDeclared:
		if err := m.catalog.SetMigrationPhase(extent, catalog.PhaseCopying); err != nil {
			return mig.Phase, false, err
		}
		return catalog.PhaseCopying, false, nil
	case catalog.PhaseCopying:
		if err := m.copyShard(ctx, &mig); err != nil {
			return mig.Phase, false, err
		}
		if mig.Kind == catalog.MigrateMerge {
			// Merge skips dual-read: the absorbed shard answers for its range
			// until the instant the ranges merge, and the surviving shard's
			// range guard keeps the copied rows out of answers until then.
			if err := m.catalog.CutoverMigration(extent); err != nil {
				return mig.Phase, false, err
			}
			return catalog.PhaseCutover, false, nil
		}
		if err := m.catalog.SetMigrationPhase(extent, catalog.PhaseDualRead); err != nil {
			return mig.Phase, false, err
		}
		return catalog.PhaseDualRead, false, nil
	case catalog.PhaseDualRead:
		if err := m.catalog.CutoverMigration(extent); err != nil {
			return mig.Phase, false, err
		}
		return catalog.PhaseCutover, false, nil
	case catalog.PhaseCutover:
		m.drainReaders(ctx)
		if err := m.cleanupAfterCutover(ctx, &mig); err != nil {
			return mig.Phase, false, err
		}
		if err := m.catalog.FinishMigration(extent); err != nil {
			return mig.Phase, false, err
		}
		return mig.Phase, true, nil
	case catalog.PhaseAborted:
		m.drainReaders(ctx)
		if err := m.cleanupAborted(ctx, &mig); err != nil {
			return mig.Phase, false, err
		}
		if err := m.catalog.ClearMigration(extent); err != nil {
			return mig.Phase, false, err
		}
		return mig.Phase, true, nil
	default:
		return mig.Phase, false, fmt.Errorf("mediator: migration of %q in unknown phase %q", extent, mig.Phase)
	}
}

// AbortMigration abandons an extent's migration before cutover and cleans up
// the partial copy at the destination. Placement never changed, so answers
// were never affected; after cleanup the record is cleared and the same
// migration can be retried with a fresh Begin. If cleanup cannot reach the
// destination the record stays aborted (answers remain correct — for a merge
// the survivor's range guard persists with the record) and either a later
// AdvanceMigration retries the cleanup or a retrying Begin resumes — the
// copy's clear-then-load makes the leftover harmless.
func (m *Mediator) AbortMigration(ctx context.Context, extent string) error {
	if err := m.catalog.AbortMigration(extent); err != nil {
		return err
	}
	mig, ok := m.catalog.MigrationOf(extent)
	if !ok {
		return nil
	}
	m.drainReaders(ctx)
	if err := m.cleanupAborted(ctx, &mig); err != nil {
		return err
	}
	return m.catalog.ClearMigration(extent)
}

// MoveShard runs a full shard move to completion: begin, copy, dual-read,
// cutover, cleanup.
func (m *Mediator) MoveShard(ctx context.Context, extent, from, to string) error {
	if err := m.BeginShardMove(extent, from, to); err != nil {
		return err
	}
	return m.driveMigration(ctx, extent)
}

// SplitShard runs a full range split to completion.
func (m *Mediator) SplitShard(ctx context.Context, extent, from string, at types.Value, to string) error {
	if err := m.BeginShardSplit(extent, from, at, to); err != nil {
		return err
	}
	return m.driveMigration(ctx, extent)
}

// MergeShards runs a full range merge to completion.
func (m *Mediator) MergeShards(ctx context.Context, extent, from, to string) error {
	if err := m.BeginShardMerge(extent, from, to); err != nil {
		return err
	}
	return m.driveMigration(ctx, extent)
}

// driveMigration advances the extent's migration until done.
func (m *Mediator) driveMigration(ctx context.Context, extent string) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, done, err := m.AdvanceMigration(ctx, extent)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// copyShard copies the migrating rows to the destination as one idempotent
// clear-then-load: read the source shard (through the normal submit path, so
// replica failover and breakers apply), filter to the migrating subset
// (split copies only rows >= SplitAt), translate into the source namespace,
// and ship. Re-running after a partial or failed earlier copy converges on
// the same state because the load clears its target set first.
func (m *Mediator) copyShard(ctx context.Context, mig *catalog.Migration) error {
	me, err := m.catalog.Extent(mig.Extent)
	if err != nil {
		return err
	}
	var ref algebra.ExtentRef
	if me.Partitioned() {
		ref = m.catalog.PartitionRef(me, mig.From)
	} else {
		ref = m.catalog.ExtentRef(me)
	}
	cctx, cancel := withEvalDeadline(ctx, m.timeout)
	defer cancel()
	bag, err := m.submit(cctx, mig.From, &algebra.Get{Ref: ref})
	if err != nil {
		return fmt.Errorf("mediator: migration copy of %s from %s: %w", mig.Extent, mig.From, err)
	}
	attr := ""
	if me.Scheme != nil {
		attr = me.Scheme.Attr
	}
	rows := make([]types.Value, 0, bag.Len())
	var rangeErr error
	bag.Range(func(v types.Value) bool {
		if mig.Kind == catalog.MigrateSplit {
			in, err := rowAtLeast(v, attr, mig.SplitAt)
			if err != nil {
				rangeErr = err
				return false
			}
			if !in {
				return true
			}
		}
		st, ok := v.(*types.Struct)
		if !ok {
			rangeErr = fmt.Errorf("mediator: migration copy of %s: row is %s, not struct", mig.Extent, v.Kind())
			return false
		}
		rows = append(rows, toSourceRow(ref, st))
		return true
	})
	if rangeErr != nil {
		return rangeErr
	}
	clear := source.ClearSpec{All: true}
	if mig.Kind == catalog.MigrateMerge {
		// The destination collection is the surviving shard's own data;
		// clear only the absorbed shard's range.
		idx := -1
		for i, p := range me.Partitions() {
			if p == mig.From {
				idx = i
				break
			}
		}
		if me.Scheme == nil || idx < 0 || idx >= len(me.Scheme.Ranges) {
			return fmt.Errorf("mediator: merge copy of %s: shard %s has no declared range", mig.Extent, mig.From)
		}
		rng := me.Scheme.Ranges[idx]
		clear = source.ClearSpec{Attr: ref.SourceAttr(attr), Lo: rng.Lo, Hi: rng.Hi}
	}
	cols := make([]string, len(ref.Attrs))
	for i, a := range ref.Attrs {
		cols[i] = ref.SourceAttr(a)
	}
	return m.loadRows(ctx, mig.To, me.SourceName, cols, clear, rows)
}

// rowAtLeast reports whether the row's attr value is >= bound.
func rowAtLeast(v types.Value, attr string, bound types.Value) (bool, error) {
	st, ok := v.(*types.Struct)
	if !ok {
		return false, fmt.Errorf("mediator: migration row is %s, not struct", v.Kind())
	}
	fv, ok := st.Get(attr)
	if !ok {
		return false, fmt.Errorf("mediator: migration row lacks partition attribute %q", attr)
	}
	c, err := types.Compare(fv, bound)
	if err != nil {
		return false, err
	}
	return c >= 0, nil
}

// toSourceRow renames a mediator-namespace row into the source namespace
// (the inverse of algebra.FromSource).
func toSourceRow(ref algebra.ExtentRef, st *types.Struct) *types.Struct {
	if len(ref.AttrMap) == 0 {
		return st
	}
	fields := st.Fields()
	out := make([]types.Field, len(fields))
	for i, f := range fields {
		out[i] = types.Field{Name: ref.SourceAttr(f.Name), Value: f.Value}
	}
	return types.NewStruct(out...)
}

// cleanupAfterCutover removes the moved-away rows from the migration
// source. For a split the cleanup is required before the record may finish:
// the split cutover guard (attr < SplitAt on the old shard) filters the
// leftover rows out of answers for exactly as long as the record exists, so
// an unreachable source delays Finish without ever corrupting an answer.
// For move and merge the whole old collection goes away — also
// answer-invisible (the old shard left placement at cutover), so a failed
// cleanup here is retried on the next Advance just the same.
func (m *Mediator) cleanupAfterCutover(ctx context.Context, mig *catalog.Migration) error {
	me, err := m.catalog.Extent(mig.Extent)
	if err != nil {
		return err
	}
	clear := source.ClearSpec{All: true}
	if mig.Kind == catalog.MigrateSplit {
		attr := ""
		if me.Scheme != nil {
			attr = me.Scheme.Attr
		}
		ref := m.catalog.ExtentRef(me)
		clear = source.ClearSpec{Attr: ref.SourceAttr(attr), Lo: mig.SplitAt}
	}
	return m.loadRows(ctx, mig.From, me.SourceName, nil, clear, nil)
}

// cleanupAborted wipes the partial copy an aborted migration may have left
// at its destination: everything for move/split (the destination collection
// existed only for the migration), the absorbed shard's range for merge
// (the destination is the survivor's live collection).
func (m *Mediator) cleanupAborted(ctx context.Context, mig *catalog.Migration) error {
	me, err := m.catalog.Extent(mig.Extent)
	if err != nil {
		return err
	}
	clear := source.ClearSpec{All: true}
	if mig.Kind == catalog.MigrateMerge {
		idx := -1
		for i, p := range me.Partitions() {
			if p == mig.From {
				idx = i
				break
			}
		}
		if me.Scheme == nil || idx < 0 || idx >= len(me.Scheme.Ranges) {
			return fmt.Errorf("mediator: merge cleanup of %s: shard %s has no declared range", mig.Extent, mig.From)
		}
		ref := m.catalog.ExtentRef(me)
		rng := me.Scheme.Ranges[idx]
		clear = source.ClearSpec{Attr: ref.SourceAttr(me.Scheme.Attr), Lo: rng.Lo, Hi: rng.Hi}
	}
	return m.loadRows(ctx, mig.To, me.SourceName, nil, clear, nil)
}

// loadRows ships one clear-then-load to a repository: in-process engines
// through source.Loader, remote repositories through the wire "load" op.
func (m *Mediator) loadRows(ctx context.Context, repo, collection string, cols []string, clear source.ClearSpec, rows []types.Value) error {
	r, err := m.catalog.Repository(repo)
	if err != nil {
		return err
	}
	if name, ok := cutMemAddr(r.Address); ok {
		m.mu.Lock()
		eng, found := m.engines[name]
		m.mu.Unlock()
		if !found {
			return fmt.Errorf("mediator: no in-process engine %q (repository %s)", name, repo)
		}
		ld, ok := eng.(source.Loader)
		if !ok {
			return fmt.Errorf("mediator: engine %q does not accept migration loads", name)
		}
		return ld.LoadRows(collection, cols, clear, rows)
	}
	if r.Address == "" {
		return fmt.Errorf("mediator: repository %s has no address", repo)
	}
	raw, err := wire.EncodeLoadRows(rows)
	if err != nil {
		return err
	}
	lo, err := wire.EncodeLoadBound(clear.Lo)
	if err != nil {
		return err
	}
	hi, err := wire.EncodeLoadBound(clear.Hi)
	if err != nil {
		return err
	}
	lctx, cancel := withEvalDeadline(ctx, m.timeout)
	defer cancel()
	err = m.clientFor(r.Address).Load(lctx, &wire.LoadRequest{
		Collection: collection,
		Cols:       cols,
		Clear:      wire.LoadClear{All: clear.All, Attr: clear.Attr, Lo: lo, Hi: hi},
		Rows:       raw,
	})
	if err != nil {
		cerr := classifySourceError(lctx, repo, err)
		var tr *TransientError
		if errors.As(cerr, &tr) {
			// TransientError is internal to the submit retry path; the
			// migration driver retries whole steps, so degrade to plain
			// unavailability.
			return &physical.UnavailableError{Repo: tr.Repo, Err: tr.Err}
		}
		return cerr
	}
	return nil
}

// cutMemAddr splits a mem: address into its engine name.
func cutMemAddr(addr string) (string, bool) {
	const prefix = "mem:"
	if len(addr) >= len(prefix) && addr[:len(prefix)] == prefix {
		return addr[len(prefix):], true
	}
	return "", false
}
