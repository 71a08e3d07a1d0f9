package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := &document{}
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Kind != docKind || doc.Version != docVersion {
		return nil, fmt.Errorf("%s: not a %s version %d document (kind %q version %d)", path, docKind, docVersion, doc.Kind, doc.Version)
	}
	return doc, nil
}

// verdict of one workload × end-to-end metric pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// worsening returns by how much cur is worse than base, as a share of base
// (negative when it is better) and in the metric's own unit.
func worsening(better string, base, cur float64) (rel, abs float64) {
	abs = cur - base
	if better == "higher" {
		abs = base - cur
	}
	return abs / math.Abs(base), abs
}

// judge holds cur to base for one metric: a regression when the median is
// worse by more than the metric's bound (and, where it has one, its
// absolute floor); unresolved when either side's inter-quartile range is
// wider than the bound (and the floor), so the medians cannot tell.
func judge(base, cur metricStat) (verdict string, rel float64) {
	rel, abs := worsening(base.Better, base.Median, cur.Median)
	wide := func(m metricStat) bool {
		iqr := m.Q3 - m.Q1
		return iqr/math.Abs(m.Median) > base.Bound && iqr > base.Floor
	}
	switch {
	case wide(base) || wide(cur):
		return verdictUnresolved, rel
	case rel > base.Bound && abs > base.Floor:
		return verdictRegression, rel
	}
	return verdictOK, rel
}

// compareFiles prints one row per workload × end-to-end metric of two
// result documents and reports whether cur stays within every bound of
// base, with no more failed operations.
func compareFiles(w io.Writer, basePath, curPath string) (bool, error) {
	base, err := readDocument(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readDocument(curPath)
	if err != nil {
		return false, err
	}
	if !reflect.DeepEqual(base.Host, cur.Host) {
		fmt.Fprintf(w, "warning: the documents were measured on different hosts (%s, %d cpus vs %s, %d cpus)\n",
			base.Host.CPUModel, base.Host.NProc, cur.Host.CPUModel, cur.Host.NProc)
	}
	if base.Scale != cur.Scale || base.Seconds != cur.Seconds {
		return false, fmt.Errorf("documents differ in scale or seconds (%s/%gs vs %s/%gs)", base.Scale, base.Seconds, cur.Scale, cur.Seconds)
	}
	curBy := map[string]workloadResult{}
	for _, wr := range cur.Workloads {
		curBy[wr.Workload.Name] = wr
	}

	ok := true
	fmt.Fprintf(w, "%-24s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "base median", "new median", "worse by", "bound", "verdict")
	for _, b := range base.Workloads {
		c, found := curBy[b.Workload.Name]
		if !found {
			fmt.Fprintf(w, "%-24s missing from %s\n", b.Workload.Name, curPath)
			ok = false
			continue
		}
		curMetrics := map[string]metricStat{}
		for _, m := range c.Metrics {
			curMetrics[m.Name] = m
		}
		for _, bm := range b.Metrics {
			if bm.Kind != "end_to_end" {
				continue
			}
			cm, found := curMetrics[bm.Name]
			if !found {
				fmt.Fprintf(w, "%-24s %-18s missing from %s\n", b.Workload.Name, bm.Name, curPath)
				ok = false
				continue
			}
			verdict, rel := judge(bm, cm)
			ok = ok && verdict == verdictOK
			fmt.Fprintf(w, "%-24s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				b.Workload.Name, bm.Name, bm.Median, cm.Median, rel*100, bm.Bound*100, verdict)
		}
		// Failures are held to "any increase": a workload that verified
		// fewer of its operations is worse whatever its timings say.
		ratio := func(wr workloadResult) float64 { return float64(wr.Failed) / float64(max(1, wr.Attempted)) }
		verdict := verdictOK
		if ratio(c) > ratio(b) || (!c.Correct && b.Correct) {
			verdict, ok = verdictRegression, false
		}
		fmt.Fprintf(w, "%-24s %-18s %14.6g %14.6g %9s %7s  %s\n", b.Workload.Name, "fail_ratio", ratio(b), ratio(c), "", "any", verdict)
		same := "same"
		if b.RecordFNV != c.RecordFNV {
			same = "differs"
			if base.Seed != cur.Seed {
				same = "differs (different seeds)"
			}
		}
		fmt.Fprintf(w, "%-24s %-18s %14s %14s %9s %7s  %s\n", b.Workload.Name, "record_fnv", b.RecordFNV[:12], c.RecordFNV[:12], "", "", same)
	}
	return ok, nil
}
