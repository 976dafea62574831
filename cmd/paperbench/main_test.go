package main

import (
	"strings"
	"testing"
)

// paperOrder is the paper's evaluation, Figs 2–14 with Tables 1 and 2 at
// the points where the paper presents them.
var paperOrder = []string{
	"fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6", "fig7a", "fig7b",
	"fig8a", "fig8b", "table1", "fig9a", "fig9b", "fig10", "fig11", "fig12",
	"table2", "fig13a", "fig13b", "fig14",
}

func ids(fs []figure) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.id
	}
	return out
}

func TestFigureTable(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.id] {
			t.Errorf("duplicate figure id %q", f.id)
		}
		seen[f.id] = true
		if f.quickIters < 1 || f.quickIters > f.defaultIters {
			t.Errorf("%s: quickIters %d, defaultIters %d: want 1 <= quick <= default",
				f.id, f.quickIters, f.defaultIters)
		}
		if f.run == nil {
			t.Errorf("%s: no run function", f.id)
		}
	}
}

func TestSelectAllIsPaperOrder(t *testing.T) {
	sel, err := selectFigures("all")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ids(sel), ","), strings.Join(paperOrder, ","); got != want {
		t.Fatalf("all = %s\nwant  %s", got, want)
	}
}

func TestSelectList(t *testing.T) {
	sel, err := selectFigures("fig9a, table1")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ids(sel), ","); got != "fig9a,table1" {
		t.Fatalf("selected %s, want fig9a,table1", got)
	}
}

func TestSelectUnknownListsValidIDs(t *testing.T) {
	_, err := selectFigures("fig2,fig99")
	if err == nil {
		t.Fatal("unknown id accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"fig99"`) {
		t.Errorf("error does not name the unknown id: %s", msg)
	}
	for _, id := range paperOrder {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list valid id %s: %s", id, msg)
		}
	}
}

func TestParseApproaches(t *testing.T) {
	apps, err := parseApproaches("baseline, comm-self,offload")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names(apps), ","); got != "baseline,comm-self,offload" {
		t.Fatalf("parsed %s", got)
	}
	if _, err := parseApproaches("baseline,bogus"); err == nil {
		t.Fatal("unknown approach accepted")
	}
}
