package dataset

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/gazetteer"
	"repro/internal/names"
	"repro/internal/record"
)

// Generated bundles everything a generation run produces.
type Generated struct {
	Config     Config
	Records    []*record.Record
	Collection *record.Collection
	Gold       *Gold
	Persons    []*Person
	Families   []*Family
	Gaz        *gazetteer.Gazetteer
	// MVSource is the source key of the extreme-volume submitter, or ""
	// when the config did not request one.
	MVSource string
}

// logical report fields; each may expand to several item types.
type field int

const (
	fLast field = iota
	fFirst
	fGender
	fDOB
	fFather
	fMother
	fSpouse
	fMaiden
	fMotherMaiden
	fPerm
	fWar
	fBirthP
	fDeathP
	fProf
	numFields
)

// victimList is one extracted source with a fixed data pattern: every
// record drawn from the list carries exactly the list's fields.
type victimList struct {
	id      string
	comm    gazetteer.Community
	fields  [numFields]bool
	dobFull bool // day+month alongside the year
}

// submitter is a Page-of-Testimony submitter identified, as in the real
// database, by first name, last name, and city.
type submitter struct {
	key  string
	uses int
}

const firstBookID = 1000000

// Generate produces a dataset from the config. Equal configs (including
// Seed) produce byte-identical datasets.
func Generate(cfg Config) (*Generated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gaz := gazetteer.Builtin(cfg.TownsPerCounty)

	// Split persons across communities by weight.
	persons, families := allocatePersons(rng, gaz, cfg)

	lists := makeLists(rng, cfg, persons)

	g := &Generated{
		Config:   cfg,
		Persons:  persons,
		Families: families,
		Gaz:      gaz,
		Gold:     NewGold(),
	}

	subPools := make(map[gazetteer.Community][]*submitter)
	if cfg.MVSubmitterShare > 0 {
		g.MVSource = "submitter:MV Verdi:Torino"
	}

	nextID := int64(firstBookID)
	for _, p := range persons {
		n := sampleDist(rng, cfg.ReportsDist) + 1
		for i := 0; i < n; i++ {
			rec := emitReport(rng, cfg, gaz, p, lists, subPools, g.MVSource, nextID)
			nextID++
			g.Records = append(g.Records, rec)
			g.Gold.Add(rec.BookID, p.ID, p.FamilyID)
		}
	}

	coll, err := record.NewCollection(g.Records)
	if err != nil {
		return nil, err
	}
	g.Collection = coll
	return g, nil
}

func allocatePersons(rng *rand.Rand, gaz *gazetteer.Gazetteer, cfg Config) ([]*Person, []*Family) {
	total := 0.0
	for _, cw := range cfg.Communities {
		total += cw.Weight
	}
	var persons []*Person
	var families []*Family
	id, famID := 0, 0
	remaining := cfg.Persons
	for i, cw := range cfg.Communities {
		count := int(float64(cfg.Persons) * cw.Weight / total)
		if i == len(cfg.Communities)-1 {
			count = remaining
		}
		if count <= 0 {
			continue
		}
		ps, fs := generatePersons(rng, gaz, cw.Comm, id, famID, count)
		persons = append(persons, ps...)
		families = append(families, fs...)
		id += len(ps)
		famID += len(fs)
		remaining -= len(ps)
	}
	return persons, families
}

// makeLists builds the victim lists, one pool per community, with the list
// pattern sampled once per list from the list profile.
func makeLists(rng *rand.Rand, cfg Config, persons []*Person) map[gazetteer.Community][]*victimList {
	// Estimate list-report volume to size the pools.
	perComm := make(map[gazetteer.Community]int)
	for _, p := range persons {
		perComm[p.Comm]++
	}
	meanReports := 0.0
	{
		sum, wsum := 0.0, 0.0
		for i, w := range cfg.ReportsDist {
			sum += float64(i+1) * w
			wsum += w
		}
		meanReports = sum / wsum
	}
	lists := make(map[gazetteer.Community][]*victimList)
	seq := 0
	// In config order, not map order: the loop draws from the rng, so the
	// order decides the corpus.
	for _, cw := range cfg.Communities {
		comm := cw.Comm
		count, ok := perComm[comm]
		if !ok {
			continue
		}
		delete(perComm, comm) // a community listed twice gets one pool
		expected := float64(count) * meanReports * (1 - cfg.TestimonyFraction)
		n := cfg.ListCount
		if n == 0 {
			n = int(expected/150) + 1
		}
		for i := 0; i < n; i++ {
			l := &victimList{
				id:   fmt.Sprintf("list:%s-%04d", comm, seq),
				comm: comm,
			}
			seq++
			p := listProfile
			if comm == gazetteer.Italy {
				p = italyListAdjust(p)
			}
			l.fields[fLast] = rng.Float64() < p.last
			l.fields[fFirst] = rng.Float64() < p.first
			l.fields[fGender] = rng.Float64() < p.gender
			l.fields[fDOB] = rng.Float64() < p.dob
			l.fields[fFather] = rng.Float64() < p.father
			l.fields[fMother] = rng.Float64() < p.mother
			l.fields[fSpouse] = rng.Float64() < p.spouse
			l.fields[fMaiden] = rng.Float64() < p.maiden
			l.fields[fMotherMaiden] = rng.Float64() < p.motherMaiden
			l.fields[fPerm] = rng.Float64() < p.perm
			l.fields[fWar] = rng.Float64() < p.war
			l.fields[fBirthP] = rng.Float64() < p.birthPlace
			l.fields[fDeathP] = rng.Float64() < p.deathPl
			l.fields[fProf] = rng.Float64() < p.profession
			l.dobFull = rng.Float64() < 0.6
			lists[comm] = append(lists[comm], l)
		}
	}
	return lists
}

func sampleDist(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// emitReport materializes one victim report for person p.
func emitReport(rng *rand.Rand, cfg Config, gaz *gazetteer.Gazetteer, p *Person, lists map[gazetteer.Community][]*victimList, pools map[gazetteer.Community][]*submitter, mvSource string, bookID int64) *record.Record {
	rec := &record.Record{BookID: bookID}

	var present [numFields]bool
	dobFull := false

	isTestimony := rng.Float64() < cfg.TestimonyFraction
	isMV := false
	if isTestimony && mvSource != "" && p.Comm == gazetteer.Italy && rng.Float64() < cfg.MVSubmitterShare/max(cfg.TestimonyFraction, 0.01) {
		isMV = true
	}

	switch {
	case isMV:
		rec.Kind = record.Testimony
		rec.Source = mvSource
		present[fFirst], present[fLast], present[fFather] = true, true, true
		present[fGender], present[fBirthP], present[fDeathP] = true, true, true
	case isTestimony:
		rec.Kind = record.Testimony
		rec.Source = pickSubmitter(rng, pools, p.Comm, gaz)
		prof := testimonyProfile
		if p.Comm == gazetteer.Italy {
			prof = italyAdjust(prof)
		}
		present[fLast] = rng.Float64() < prof.last
		present[fFirst] = rng.Float64() < prof.first
		present[fGender] = rng.Float64() < prof.gender
		present[fDOB] = rng.Float64() < prof.dob
		present[fFather] = rng.Float64() < prof.father
		present[fMother] = rng.Float64() < prof.mother
		present[fSpouse] = rng.Float64() < prof.spouse
		present[fMaiden] = rng.Float64() < prof.maiden
		present[fMotherMaiden] = rng.Float64() < prof.motherMaiden
		present[fPerm] = rng.Float64() < prof.perm
		present[fWar] = rng.Float64() < prof.war
		present[fBirthP] = rng.Float64() < prof.birthPlace
		present[fDeathP] = rng.Float64() < prof.deathPl
		present[fProf] = rng.Float64() < prof.profession
		dobFull = rng.Float64() < 0.6
	default:
		rec.Kind = record.List
		pool := lists[p.Comm]
		l := pool[rng.Intn(len(pool))]
		rec.Source = l.id
		present = l.fields
		dobFull = l.dobFull
	}

	// Maiden names only exist for married women; spouse only if married.
	if p.Maiden == "" {
		present[fMaiden] = false
	}
	if p.Spouse == "" {
		present[fSpouse] = false
	}
	if p.MotherMdn == "" {
		present[fMotherMaiden] = false
	}

	if present[fLast] {
		rec.Add(record.LastName, emitName(rng, cfg, p.Last, false))
	}
	if present[fFirst] {
		rec.Add(record.FirstName, emitName(rng, cfg, p.First, true))
		if rng.Float64() < cfg.SecondName {
			corpus := names.CorpusFor(p.Comm.String())
			pool := corpus.MaleFirst
			if p.Gender == names.Female {
				pool = corpus.FemaleFirst
			}
			rec.Add(record.FirstName, pick(rng, pool))
		}
	}
	if present[fGender] {
		rec.Add(record.Gender, p.Gender)
	}
	if present[fDOB] {
		year := p.BirthYear
		if rng.Float64() < cfg.YearSlip {
			year += 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				year = p.BirthYear - (1 + rng.Intn(3))
			}
		}
		rec.Add(record.BirthYear, strconv.Itoa(year))
		if dobFull {
			rec.Add(record.BirthMonth, strconv.Itoa(p.BirthMonth))
			rec.Add(record.BirthDay, strconv.Itoa(p.BirthDay))
		}
	}
	if present[fFather] {
		rec.Add(record.FatherName, emitName(rng, cfg, p.Father, true))
	}
	if present[fMother] {
		rec.Add(record.MotherName, emitName(rng, cfg, p.Mother, true))
	}
	if present[fSpouse] {
		rec.Add(record.SpouseName, emitName(rng, cfg, p.Spouse, true))
	}
	if present[fMaiden] {
		rec.Add(record.MaidenName, emitName(rng, cfg, p.Maiden, false))
	}
	if present[fMotherMaiden] {
		rec.Add(record.MotherMaiden, emitName(rng, cfg, p.MotherMdn, false))
	}
	if present[fPerm] {
		emitPlace(rng, cfg, rec, record.Permanent, p.PermPlace, gaz)
	}
	if present[fWar] {
		emitPlace(rng, cfg, rec, record.Wartime, p.WarPlace, gaz)
	}
	if present[fBirthP] {
		emitPlace(rng, cfg, rec, record.Birth, p.BirthPlace, gaz)
	}
	if present[fDeathP] {
		emitPlace(rng, cfg, rec, record.Death, p.DeathPlace, gaz)
	}
	if present[fProf] {
		rec.Add(record.Profession, p.Profession)
	}
	return rec
}

// emitName renders a person name with the configured variant and typo
// rates. Equivalence-class variants apply only to first-name-like values.
func emitName(rng *rand.Rand, cfg Config, name string, firstName bool) string {
	out := name
	if firstName && rng.Float64() < cfg.VariantRate {
		out = names.PickVariant(rng, out)
	}
	if rng.Float64() < cfg.TypoRate {
		out = names.Corrupt(rng, out)
	}
	return out
}

// emitPlace writes the four components of a place. The city may appear
// under a spelling variant; coarser components are copied verbatim.
func emitPlace(rng *rand.Rand, cfg Config, rec *record.Record, pt record.PlaceType, pl gazetteer.Place, gaz *gazetteer.Gazetteer) {
	city := pl.City
	if len(pl.Variants) > 0 && rng.Float64() < cfg.VariantRate*0.6 {
		city = pl.Variants[rng.Intn(len(pl.Variants))]
	}
	rec.Add(record.PlaceItem(pt, record.City), city)
	rec.Add(record.PlaceItem(pt, record.County), pl.County)
	rec.Add(record.PlaceItem(pt, record.Region), pl.Region)
	rec.Add(record.PlaceItem(pt, record.Country), pl.Country)
}

// pickSubmitter reuses an existing submitter (people filed 1-5 pages) or
// mints a new one.
func pickSubmitter(rng *rand.Rand, pools map[gazetteer.Community][]*submitter, comm gazetteer.Community, gaz *gazetteer.Gazetteer) string {
	pool := pools[comm]
	if len(pool) > 0 && rng.Float64() < 0.35 {
		s := pool[rng.Intn(len(pool))]
		if s.uses < 5 {
			s.uses++
			return s.key
		}
	}
	corpus := names.CorpusFor(comm.String())
	places := gaz.CommunityPlaces(comm)
	first := pick(rng, corpus.MaleFirst)
	if rng.Intn(2) == 0 {
		first = pick(rng, corpus.FemaleFirst)
	}
	key := fmt.Sprintf("submitter:%s %s:%s", first, pick(rng, corpus.Last), places[rng.Intn(len(places))].City)
	s := &submitter{key: key, uses: 1}
	pools[comm] = append(pools[comm], s)
	return key
}
