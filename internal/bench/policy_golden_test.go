package bench

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"trapnull/internal/obs"
)

// policyGoldenPath pins every timing-free number of the quick policy sweeps
// (benchtab -tier and -degradation): the JSON reports without the host-time
// compile_to_peak_us field, the timelines and the deterministic metrics
// snapshots. benchdiff does not gate these sweeps, so this file is what
// proves a refactor of the policy runner changed no number.
const policyGoldenPath = "testdata/policy_quick.golden"

// hostTimeField matches the one host-timed JSON field of the policy reports.
var hostTimeField = regexp.MustCompile(`(?m)^\s*"compile_to_peak_us": \d+,\n`)

// policyQuickProjection renders the timing-free projection of the quick
// tiered and degradation sweeps.
func policyQuickProjection(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	section := func(name, body string) {
		b.WriteString("== " + name + " ==\n")
		b.WriteString(body)
		if !strings.HasSuffix(body, "\n") {
			b.WriteByte('\n')
		}
	}

	ttl, treg := obs.NewTimeline(), obs.NewRegistry()
	trep, err := RunTieredAll(PolicyOptions{Quick: true, Timeline: ttl, Metrics: treg})
	if err != nil {
		t.Fatalf("tier sweep: %v", err)
	}
	tj, err := trep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	section("tier json", hostTimeField.ReplaceAllString(string(tj), ""))
	section("tier timeline", ttl.Render())
	section("tier metrics", treg.RenderText(false))

	dtl, dreg := obs.NewTimeline(), obs.NewRegistry()
	drep, err := RunDegradationAll(PolicyOptions{Quick: true, Timeline: dtl, Metrics: dreg})
	if err != nil {
		t.Fatalf("degradation sweep: %v", err)
	}
	dj, err := drep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	section("degradation json", string(dj))
	section("degradation timeline", dtl.Render())
	section("degradation metrics", dreg.RenderText(false))
	return b.String()
}

// TestPolicySweepsGolden compares the quick policy sweeps with the checked-in
// projection. A deliberate change to a policy, workload or cost model
// rewrites the golden file with policyQuickProjection's output and says why.
func TestPolicySweepsGolden(t *testing.T) {
	want, err := os.ReadFile(policyGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := policyQuickProjection(t)
	if got != string(want) {
		t.Errorf("quick policy sweeps differ from %s near:\n%s\nwant:\n%s",
			policyGoldenPath, firstDiffContext(got, string(want)), firstDiffContext(string(want), got))
	}
}
