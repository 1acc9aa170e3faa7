// Package narrative turns resolved entities into narratives: ordered
// sequences of life events with source attribution, conflict detection,
// and per-event confidence. This is the paper's motivating application —
// "a robust automatic procedure to identify and collect all information
// pertaining to a single entity ... as a stepping stone towards
// automatically creating narratives" — taken one step further than the
// core.Entity merged view: events are typed, dated where possible, and
// carry the reports that support or contradict them.
package narrative

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/record"
)

// EventKind orders the canonical life events.
type EventKind uint8

// The event kinds, in life order.
const (
	Birth EventKind = iota
	Family
	Marriage
	Residence
	Occupation
	Wartime
	Death

	// NumEventKinds is the number of event kinds.
	NumEventKinds = int(Death) + 1
)

var eventKindNames = [NumEventKinds]string{
	"birth", "family", "marriage", "residence", "occupation", "wartime", "death",
}

func (k EventKind) String() string {
	if int(k) < NumEventKinds {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one narrative element: a fact of some kind, the reports
// supporting it, and the alternatives that contradict it.
type Event struct {
	Kind EventKind
	// Text is the rendered fact ("born 1920 in Torino").
	Text string
	// Year anchors the event on the timeline; 0 when unknown.
	Year int
	// Support lists the BookIDs of the reports carrying the fact.
	Support []int64
	// Confidence is the fraction of eligible reports agreeing with the
	// fact (reports lacking the attribute are not eligible).
	Confidence float64
	// Alternatives are conflicting values with their own support.
	Alternatives []Alternative
}

// Alternative is a conflicting reading of the same event.
type Alternative struct {
	Text    string
	Support []int64
}

// Conflicted reports whether the event has contradicting evidence.
func (e *Event) Conflicted() bool { return len(e.Alternatives) > 0 }

// Narrative is the ordered event sequence of one person.
type Narrative struct {
	// Subject is the display name.
	Subject string
	// Reports are the BookIDs woven together.
	Reports []int64
	// Events are ordered by life stage, then year.
	Events []Event
}

// Builder assembles narratives from the reports attributed to an entity.
type Builder struct {
	// Coll resolves BookIDs to records.
	Coll *record.Collection
}

// valueSupport gathers, per value of an item type, the supporting reports.
func (b *Builder) valueSupport(ids []int64, t record.ItemType) map[string][]int64 {
	out := make(map[string][]int64)
	for _, id := range ids {
		r := b.Coll.ByID(id)
		if r == nil {
			continue
		}
		seen := map[string]bool{}
		for _, v := range r.Values(t) {
			key := strings.ToLower(v)
			if seen[key] {
				continue
			}
			seen[key] = true
			out[v] = append(out[v], id)
		}
	}
	return out
}

// majority picks the best-supported value; ok is false when no report
// carries the attribute.
func majority(support map[string][]int64) (value string, ids []int64, eligible int, ok bool) {
	seenReports := map[int64]bool{}
	for v, s := range support {
		for _, id := range s {
			seenReports[id] = true
		}
		if len(s) > len(ids) || (len(s) == len(ids) && v < value) {
			value, ids = v, s
		}
	}
	return value, ids, len(seenReports), len(support) > 0
}

// Build assembles the narrative of the reports (an entity's members).
func (b *Builder) Build(subject string, ids []int64) *Narrative {
	n := &Narrative{Subject: subject, Reports: append([]int64(nil), ids...)}

	n.addValueEvent(b, ids, Birth, record.BirthYear, func(v string) string { return "born " + v })
	n.addValueEvent(b, ids, Birth, record.BirthCity, func(v string) string { return "born in " + v })
	n.addValueEvent(b, ids, Family, record.FatherName, func(v string) string { return "child of father " + v })
	n.addValueEvent(b, ids, Family, record.MotherName, func(v string) string { return "child of mother " + v })
	n.addValueEvent(b, ids, Marriage, record.SpouseName, func(v string) string { return "married to " + v })
	n.addValueEvent(b, ids, Residence, record.PermCity, func(v string) string { return "lived in " + v })
	n.addValueEvent(b, ids, Occupation, record.Profession, func(v string) string { return "worked as " + v })
	n.addValueEvent(b, ids, Wartime, record.WarCity, func(v string) string { return "was during the war in " + v })
	n.addValueEvent(b, ids, Death, record.DeathCity, func(v string) string { return "perished in " + v })

	// Anchor years: birth events get the birth year; death defaults after
	// wartime.
	year := b.birthYear(ids)
	for i := range n.Events {
		if n.Events[i].Kind == Birth && year > 0 {
			n.Events[i].Year = year
		}
	}
	sort.SliceStable(n.Events, func(i, j int) bool {
		if n.Events[i].Kind != n.Events[j].Kind {
			return n.Events[i].Kind < n.Events[j].Kind
		}
		return n.Events[i].Text < n.Events[j].Text
	})
	return n
}

func (b *Builder) birthYear(ids []int64) int {
	v, _, _, ok := majority(b.valueSupport(ids, record.BirthYear))
	if !ok {
		return 0
	}
	y, err := strconv.Atoi(v)
	if err != nil {
		return 0
	}
	return y
}

// addValueEvent emits one event per attribute with majority/alternative
// split.
func (n *Narrative) addValueEvent(b *Builder, ids []int64, kind EventKind, t record.ItemType, render func(string) string) {
	support := b.valueSupport(ids, t)
	value, winners, eligible, ok := majority(support)
	if !ok {
		return
	}
	ev := Event{
		Kind:       kind,
		Text:       render(value),
		Support:    winners,
		Confidence: float64(len(winners)) / float64(eligible),
	}
	// Alternatives: every other value.
	var alts []Alternative
	for v, s := range support {
		if v == value {
			continue
		}
		alts = append(alts, Alternative{Text: render(v), Support: s})
	}
	sort.Slice(alts, func(i, j int) bool {
		if len(alts[i].Support) != len(alts[j].Support) {
			return len(alts[i].Support) > len(alts[j].Support)
		}
		return alts[i].Text < alts[j].Text
	})
	ev.Alternatives = alts
	n.Events = append(n.Events, ev)
}

// String renders the narrative with conflicts flagged.
func (n *Narrative) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d reports)\n", n.Subject, len(n.Reports))
	for _, e := range n.Events {
		marker := " "
		if e.Conflicted() {
			marker = "!"
		}
		fmt.Fprintf(&b, " %s [%s] %s (confidence %.2f, %d reports)\n",
			marker, e.Kind, e.Text, e.Confidence, len(e.Support))
		for _, a := range e.Alternatives {
			fmt.Fprintf(&b, "     vs: %s (%d reports)\n", a.Text, len(a.Support))
		}
	}
	return b.String()
}

// Conflicts returns the conflicted events.
func (n *Narrative) Conflicts() []Event {
	var out []Event
	for _, e := range n.Events {
		if e.Conflicted() {
			out = append(out, e)
		}
	}
	return out
}
