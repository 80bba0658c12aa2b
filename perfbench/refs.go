package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"time"

	"memlife/internal/lifetime"
)

// refsJSON is the committed reference table; regenerate it with
// -write-refs after a change that is meant to alter simulated results.
//
//go:embed refs.json
var refsJSON []byte

// refTable holds the reference outputs the correctness gate compares
// against: every study any seed can draw and the digest of every
// serve-mix job document.
type refTable struct {
	Studies map[string]studyRef `json:"studies"`
	// Jobs maps a job spec's run.seed to the digest of its result
	// document.
	Jobs map[string]string `json:"jobs"`
}

func loadRefs() (*refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	return &t, nil
}

// checkStudy compares a study outcome with its reference.
func (t *refTable) checkStudy(s study, got studyRef) error {
	want, ok := t.Studies[s.key()]
	if !ok {
		return fmt.Errorf("study %s: no reference", s.key())
	}
	if !want.matches(got) {
		return fmt.Errorf("study %s: got lifetime=%d cycles=%d acc=%g pulses=%d digest=%s, want lifetime=%d cycles=%d acc=%g pulses=%d digest=%s",
			s.key(), got.Lifetime, got.Cycles, got.FinalAcc, got.Pulses, got.Digest,
			want.Lifetime, want.Cycles, want.FinalAcc, want.Pulses, want.Digest)
	}
	return nil
}

// checkJob compares a serve-mix result document with its reference.
func (t *refTable) checkJob(runSeed int64, doc []byte) error {
	want, ok := t.Jobs[strconv.FormatInt(runSeed, 10)]
	if !ok {
		return fmt.Errorf("job run.seed=%d: no reference", runSeed)
	}
	if got := docDigest(doc); got != want {
		return fmt.Errorf("job run.seed=%d: result digest %s, want %s", runSeed, got, want)
	}
	return nil
}

// writeRefs recomputes the whole reference table and writes it to
// path. Every study is simulated twice, through lifetime.RunCtx and
// through the traced replay, and the two must agree exactly; the job
// documents come from a real daemon. It takes about a quarter of an
// hour on two cores.
func writeRefs(ctx context.Context, path, bin, workdir string) error {
	fx, err := buildFixture(fixtureSeed)
	if err != nil {
		return err
	}
	t := &refTable{Studies: map[string]studyRef{}, Jobs: map[string]string{}}
	var all []study
	for s := int64(1); s <= lifetimeSeedPool; s++ {
		for _, w := range []lifetimeWorkload{table1Lenet, agedRemap} {
			for _, sc := range w.scenarios {
				all = append(all, study{Scenario: sc, Seed: s, BurnIn: w.burnIn})
			}
		}
		all = append(all, study{Scenario: lifetime.STAT, Seed: s, MaxCycles: serveStudyCycles})
	}
	for _, s := range all {
		t0 := time.Now()
		res, err := fx.run(ctx, s)
		if err != nil {
			return fmt.Errorf("study %s: %w", s.key(), err)
		}
		rep, cnt, err := fx.replay(ctx, nil, s)
		if err != nil {
			return fmt.Errorf("study %s replay: %w", s.key(), err)
		}
		if !reflect.DeepEqual(res, rep) {
			return fmt.Errorf("study %s: replay differs from lifetime.RunCtx", s.key())
		}
		t.Studies[s.key()] = refOf(res, cnt.Pulses)
		fmt.Fprintf(os.Stderr, "ref %-28s lifetime=%d cycles=%d (%.1fs)\n", s.key(), res.Lifetime, len(res.Records), time.Since(t0).Seconds())
	}

	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	store, err := os.MkdirTemp(workdir, "refs-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(store)
	d, _, err := startDaemon(bin, store)
	if err != nil {
		return err
	}
	defer d.stop()
	c := newClient(d.base)
	defer c.close()
	seeds := jobRunSeeds(0)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, rs := range seeds {
		s, err := runJob(ctx, c, rs)
		if err != nil {
			return err
		}
		t.Jobs[strconv.FormatInt(rs, 10)] = docDigest(s.doc)
		fmt.Fprintf(os.Stderr, "ref job run.seed=%d (%.1fs)\n", rs, s.total)
	}

	b, err := marshalRefs(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// marshalRefs encodes the table with one entry per line, so a
// regenerated table diffs entry by entry.
func marshalRefs(t *refTable) ([]byte, error) {
	var buf bytes.Buffer
	section := func(name string, m any, last bool) error {
		raw, err := json.Marshal(m)
		if err != nil {
			return err
		}
		var entries map[string]json.RawMessage
		if err := json.Unmarshal(raw, &entries); err != nil {
			return err
		}
		keys := make([]string, 0, len(entries))
		for k := range entries {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&buf, "  %q: {\n", name)
		for i, k := range keys {
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			fmt.Fprintf(&buf, "    %q: %s%s\n", k, entries[k], sep)
		}
		if last {
			buf.WriteString("  }\n")
		} else {
			buf.WriteString("  },\n")
		}
		return nil
	}
	buf.WriteString("{\n")
	if err := section("studies", t.Studies, false); err != nil {
		return nil, err
	}
	if err := section("jobs", t.Jobs, true); err != nil {
		return nil, err
	}
	buf.WriteString("}\n")
	return buf.Bytes(), nil
}
