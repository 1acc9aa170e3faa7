package narrative

import (
	"strings"
	"testing"

	"repro/internal/record"
)

func fixture(t *testing.T) (*Builder, []int64) {
	t.Helper()
	mk := func(id int64, items ...record.Item) *record.Record {
		return &record.Record{BookID: id, Items: items}
	}
	it := func(ty record.ItemType, v string) record.Item { return record.Item{Type: ty, Value: v} }
	recs := []*record.Record{
		mk(1, it(record.FirstName, "Guido"), it(record.BirthYear, "1920"),
			it(record.BirthCity, "Torino"), it(record.DeathCity, "Auschwitz")),
		mk(2, it(record.FirstName, "Guido"), it(record.BirthYear, "1920"),
			it(record.SpouseName, "Olga"), it(record.DeathCity, "Auschwitz")),
		mk(3, it(record.FirstName, "Guido"), it(record.BirthYear, "1936"),
			it(record.BirthCity, "Torino")),
	}
	coll, err := record.NewCollection(recs)
	if err != nil {
		t.Fatal(err)
	}
	return &Builder{Coll: coll}, []int64{1, 2, 3}
}

func TestBuildEventsAndConflicts(t *testing.T) {
	b, ids := fixture(t)
	n := b.Build("Guido Foa", ids)

	if len(n.Events) == 0 {
		t.Fatal("no events built")
	}
	// Events are ordered by life stage.
	prev := EventKind(0)
	for _, e := range n.Events {
		if e.Kind < prev {
			t.Errorf("events out of order: %v after %v", e.Kind, prev)
		}
		prev = e.Kind
	}

	var birthYear *Event
	for i := range n.Events {
		if strings.HasPrefix(n.Events[i].Text, "born 19") {
			birthYear = &n.Events[i]
		}
	}
	if birthYear == nil {
		t.Fatal("no birth-year event")
	}
	if birthYear.Text != "born 1920" {
		t.Errorf("majority year = %q", birthYear.Text)
	}
	if !birthYear.Conflicted() {
		t.Error("1920 vs 1936 should conflict")
	}
	if len(birthYear.Alternatives) != 1 || birthYear.Alternatives[0].Text != "born 1936" {
		t.Errorf("alternatives = %+v", birthYear.Alternatives)
	}
	// Confidence: 2 of 3 eligible reports agree.
	if got := birthYear.Confidence; got < 0.66 || got > 0.67 {
		t.Errorf("confidence = %v, want 2/3", got)
	}
	if birthYear.Year != 1920 {
		t.Errorf("anchored year = %d", birthYear.Year)
	}
}

func TestUnanimousEventHasFullConfidence(t *testing.T) {
	b, ids := fixture(t)
	n := b.Build("Guido", ids)
	for _, e := range n.Events {
		if e.Text == "perished in Auschwitz" {
			if e.Confidence != 1 {
				t.Errorf("unanimous death confidence = %v", e.Confidence)
			}
			if e.Conflicted() {
				t.Error("unanimous event marked conflicted")
			}
			return
		}
	}
	t.Fatal("death event missing")
}

func TestConflictsAndMeanConfidence(t *testing.T) {
	b, ids := fixture(t)
	n := b.Build("Guido", ids)
	conflicts := n.Conflicts()
	if len(conflicts) == 0 {
		t.Fatal("expected at least one conflict")
	}
	sum := 0.0
	for _, e := range n.Events {
		sum += e.Confidence
	}
	if mc := sum / float64(len(n.Events)); mc <= 0 || mc > 1 {
		t.Errorf("mean event confidence = %v", mc)
	}
}

func TestStringRendersConflictMarker(t *testing.T) {
	b, ids := fixture(t)
	s := b.Build("Guido Foa", ids).String()
	if !strings.Contains(s, "Guido Foa (3 reports)") {
		t.Errorf("missing subject header:\n%s", s)
	}
	if !strings.Contains(s, " ! ") || !strings.Contains(s, "vs: born 1936") {
		t.Errorf("conflict rendering missing:\n%s", s)
	}
}

func TestMissingAttributesSkipped(t *testing.T) {
	coll, err := record.NewCollection([]*record.Record{{BookID: 9}})
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{Coll: coll}
	n := b.Build("Nobody", []int64{9})
	if len(n.Events) != 0 {
		t.Errorf("bare record produced events: %+v", n.Events)
	}
	// Unknown BookIDs are tolerated.
	n = b.Build("Ghost", []int64{404})
	if len(n.Events) != 0 {
		t.Errorf("unknown report produced events")
	}
}

func TestEventKindNames(t *testing.T) {
	for k := 0; k < NumEventKinds; k++ {
		if strings.HasPrefix(EventKind(k).String(), "EventKind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
}
