// Package dataset generates synthetic Names-Project-shaped datasets: ground
// truth persons and families, victim reports emitted through testimony and
// list sources with realistic field dropout and corruption, the matching
// gold standard, and a simulator of the archival experts' five-grade pair
// tags.
//
// The real Yad Vashem database is proprietary; the generator is calibrated
// to the paper's published marginals — field prevalence (Table 3), value
// cardinality (Table 4), data-pattern skew (Figure 11), duplicate cluster
// sizes of at most eight, and the presence of an extreme-volume submitter
// ("MV") with a fixed submission pattern.
package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/gazetteer"
	"repro/internal/names"
)

// Person is a ground-truth individual: the entity reports refer to.
type Person struct {
	ID       int
	FamilyID int
	Comm     gazetteer.Community

	Gender     string // names.Male or names.Female
	First      string
	Last       string
	Maiden     string // for married women
	Father     string
	Mother     string
	MotherMdn  string
	Spouse     string
	Profession string

	BirthDay, BirthMonth, BirthYear int

	BirthPlace gazetteer.Place
	PermPlace  gazetteer.Place
	WarPlace   gazetteer.Place
	DeathPlace gazetteer.Place
}

// Family is a nuclear family: two parents and their children, sharing a
// last name, places, and parent names — the structure behind the paper's
// family-level resolution discussion (the Capelluto example).
type Family struct {
	ID       int
	Comm     gazetteer.Community
	Last     string
	Members  []*Person
	HomeCity gazetteer.Place
}

// generatePersons builds families of persons for one community until the
// target count is reached. It returns persons in generation order.
func (gen *generator) generatePersons(comm gazetteer.Community, startID, startFamily, count int) ([]*Person, []*Family) {
	rng := gen.rng
	corpus := names.CorpusFor(comm.String())
	places := gen.places[comm]
	if len(places) == 0 {
		panic(fmt.Sprintf("dataset: no places for community %v", comm))
	}
	deaths := gazetteer.DeathSites()

	var persons []*Person
	var families []*Family
	id := startID
	famID := startFamily
	for len(persons) < count {
		fam := &Family{
			ID:       famID,
			Comm:     comm,
			Last:     pick(rng, corpus.Last),
			HomeCity: places[rng.Intn(len(places))],
		}
		famID++

		father := &Person{
			ID: id, FamilyID: fam.ID, Comm: comm,
			Gender: names.Male,
			First:  pick(rng, corpus.MaleFirst),
			Last:   fam.Last,
		}
		id++
		mother := &Person{
			ID: id, FamilyID: fam.ID, Comm: comm,
			Gender: names.Female,
			First:  pick(rng, corpus.FemaleFirst),
			Last:   fam.Last,
			Maiden: pick(rng, corpus.Last),
		}
		id++
		father.Spouse = mother.First
		mother.Spouse = father.First
		// Grandparent names for the parents themselves.
		father.Father = pick(rng, corpus.MaleFirst)
		father.Mother = pick(rng, corpus.FemaleFirst)
		father.MotherMdn = pick(rng, corpus.Last)
		mother.Father = pick(rng, corpus.MaleFirst)
		mother.Mother = pick(rng, corpus.FemaleFirst)
		mother.MotherMdn = pick(rng, corpus.Last)

		parentBirthYear := 1880 + rng.Intn(35) // 1880-1914
		fillVitals(rng, father, fam, places, deaths, parentBirthYear)
		fillVitals(rng, mother, fam, places, deaths, parentBirthYear+rng.Intn(6)-2)

		members := []*Person{father, mother}
		nChildren := rng.Intn(5) // 0..4
		for c := 0; c < nChildren; c++ {
			child := &Person{
				ID: id, FamilyID: fam.ID, Comm: comm,
				Last:      fam.Last,
				Father:    father.First,
				Mother:    mother.First,
				MotherMdn: mother.Maiden,
			}
			id++
			if rng.Intn(2) == 0 {
				child.Gender = names.Male
				child.First = pick(rng, corpus.MaleFirst)
			} else {
				child.Gender = names.Female
				child.First = pick(rng, corpus.FemaleFirst)
			}
			childYear := parentBirthYear + 20 + rng.Intn(22)
			fillVitals(rng, child, fam, places, deaths, childYear)
			members = append(members, child)
		}
		fam.Members = members
		families = append(families, fam)
		persons = append(persons, members...)
	}
	if len(persons) > count {
		persons = persons[:count]
	}
	return persons, families
}

// fillVitals assigns birth date, profession, and the four places.
func fillVitals(rng *rand.Rand, p *Person, fam *Family, places []gazetteer.Place, deaths []gazetteer.Place, birthYear int) {
	corpus := names.CorpusFor(p.Comm.String())
	p.BirthYear = birthYear
	p.BirthMonth = 1 + rng.Intn(12)
	p.BirthDay = 1 + rng.Intn(28)
	p.Profession = pick(rng, corpus.Professions)

	// Births happen near the family home; permanent residence is the home
	// city; the war-time place is the home or a nearby city; death is a
	// camp or the war-time place.
	p.PermPlace = fam.HomeCity
	if rng.Float64() < 0.7 {
		p.BirthPlace = fam.HomeCity
	} else {
		p.BirthPlace = places[rng.Intn(len(places))]
	}
	if rng.Float64() < 0.6 {
		p.WarPlace = fam.HomeCity
	} else {
		p.WarPlace = places[rng.Intn(len(places))]
	}
	if rng.Float64() < 0.65 {
		p.DeathPlace = deaths[rng.Intn(len(deaths))]
	} else {
		p.DeathPlace = p.WarPlace
	}
}

func pick(rng *rand.Rand, pool []string) string {
	return pool[rng.Intn(len(pool))]
}
