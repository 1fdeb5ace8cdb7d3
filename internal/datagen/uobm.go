package datagen

import "powl/internal/rdf"

// UOBMConfig scales the UOBM generator; the paper used UOBM-4
// (Universities = 4).
type UOBMConfig struct {
	Universities int
	Seed         int64
	DeptsPerUniv int
}

const uobmNS = "http://benchmark.powl/uobm#"

// UOBM generates a University-Ontology-Benchmark-shaped dataset. Its
// distinguishing feature, relative to LUBM, is density: symmetric
// cross-university friendships, cross enrolment, and same-home-town links
// tie universities together, so every partitioning policy cuts many edges and
// the replication (IR) stays high. The ontology deliberately has no
// allValuesFrom axiom, so the backward engine's per-query work stays local
// — this is the combination that made UOBM scale linearly and speed up
// sub-linearly in the paper (§VI-A).
func UOBM(cfg UOBMConfig) *Dataset {
	if cfg.Universities < 1 {
		cfg.Universities = 1
	}
	b := newBuilder(cfg.Seed ^ 0x0b3b)

	// ----- TBox ------------------------------------------------------------
	organization := b.class(uobmNS + "Organization")
	university := b.class(uobmNS+"University", organization)
	department := b.class(uobmNS+"Department", organization)
	person := b.class(uobmNS + "Person")
	employee := b.class(uobmNS+"Employee", person)
	faculty := b.class(uobmNS+"Faculty", employee)
	professor := b.class(uobmNS+"Professor", faculty)
	student := b.class(uobmNS+"Student", person)
	ugStudent := b.class(uobmNS+"UndergraduateStudent", student)
	gradStudent := b.class(uobmNS+"GraduateStudent", student)
	course := b.class(uobmNS + "Course")
	sportsLover := b.class(uobmNS+"SportsLover", person)

	memberOf := b.prop(uobmNS+"isMemberOf", person, organization)
	worksFor := b.prop(uobmNS+"worksFor", 0, 0)
	b.add(worksFor, b.subPropertyOf, memberOf)
	subOrgOf := b.prop(uobmNS+"subOrganizationOf", organization, 0) // no range: see LUBM generator
	b.add(subOrgOf, b.typ, b.transitive)
	hasFriend := b.prop(uobmNS+"hasFriend", person, person)
	b.add(hasFriend, b.typ, b.symmetric)
	// Symmetric but deliberately NOT transitive: UOBM's workload must stay
	// in the reasoner's linear regime (the paper found UOBM does not
	// exhibit worst-case complexity, §VI-A), and symmetric+transitive over
	// random links would collapse the dataset into equivalence cliques.
	hasSameHomeTownWith := b.prop(uobmNS+"hasSameHomeTownWith", person, person)
	b.add(hasSameHomeTownWith, b.typ, b.symmetric)
	takesCourse := b.prop(uobmNS+"takesCourse", student, course)
	teacherOf := b.prop(uobmNS+"teacherOf", faculty, course)
	likes := b.prop(uobmNS+"like", 0, 0)
	loves := b.prop(uobmNS+"love", 0, 0)
	b.add(loves, b.subPropertyOf, likes)

	// SportsFan ≡ ∃like.SportsEvent — a someValuesFrom inference like
	// LUBM's Chair, cheap for the backward engine.
	sportsEvent := b.class(uobmNS + "SportsEvent")
	fanRestr := b.someValues(uobmNS+"SportsFanRestriction", likes, sportsEvent)
	b.add(fanRestr, b.subClassOf, sportsLover)

	// ----- ABox ------------------------------------------------------------
	type deptRec struct {
		people  []rdf.ID
		courses []rdf.ID
	}
	var all []deptRec
	var allPeople []rdf.ID

	for u := 0; u < cfg.Universities; u++ {
		univNS := func(rest string) string { return uobmNS + "univ" + itoa(u) + "/" + rest }
		univ := b.iri(uobmNS + "univ" + itoa(u))
		b.add(univ, b.typ, university)

		depts := cfg.DeptsPerUniv
		if depts <= 0 {
			depts = b.between(10, 14)
		}
		for d := 0; d < depts; d++ {
			deptName := "dept" + itoa(d)
			dept := b.iri(univNS(deptName))
			b.add(dept, b.typ, department)
			b.add(dept, subOrgOf, univ)
			rec := deptRec{}

			for ci := 0; ci < b.between(4, 6); ci++ {
				c := b.iri(univNS(deptName + "/course" + itoa(ci)))
				b.add(c, b.typ, course)
				rec.courses = append(rec.courses, c)
			}
			for pi := 0; pi < b.between(4, 6); pi++ {
				p := b.iri(univNS(deptName + "/prof" + itoa(pi)))
				b.add(p, b.typ, professor)
				b.add(p, worksFor, dept)
				b.add(p, teacherOf, rec.courses[b.rng.Intn(len(rec.courses))])
				rec.people = append(rec.people, p)
			}
			for si := 0; si < b.between(10, 14); si++ {
				s := b.iri(univNS(deptName + "/student" + itoa(si)))
				if si%3 == 0 {
					b.add(s, b.typ, gradStudent)
				} else {
					b.add(s, b.typ, ugStudent)
				}
				b.add(s, memberOf, dept)
				for c := 0; c < b.between(1, 2); c++ {
					b.add(s, takesCourse, rec.courses[b.rng.Intn(len(rec.courses))])
				}
				rec.people = append(rec.people, s)
			}
			all = append(all, rec)
			allPeople = append(allPeople, rec.people...)
		}

		// A campus-wide sports event liked by a sample of people.
		ev := b.iri(univNS("sportsEvent0"))
		b.add(ev, b.typ, sportsEvent)
		for i := 0; i < 10 && i < len(allPeople); i++ {
			b.add(allPeople[b.rng.Intn(len(allPeople))], loves, ev)
		}
	}

	// Dense cross-cutting relations: each person gets 2–4 friends anywhere
	// in the dataset and occasionally a same-home-town link. These are the
	// edges that resist partitioning and drive UOBM's replication up.
	// (No owl:sameAs instance data: each alias would drag whole per-resource
	// sub-queries into every query and push the reasoner out of the linear
	// regime the paper observed for UOBM.)
	for _, p := range allPeople {
		for f := 0; f < b.between(2, 4); f++ {
			b.add(p, hasFriend, allPeople[b.rng.Intn(len(allPeople))])
		}
		if b.rng.Intn(6) == 0 {
			b.add(p, hasSameHomeTownWith, allPeople[b.rng.Intn(len(allPeople))])
		}
	}
	// Cross enrolment: students occasionally take a course in another
	// department (possibly another university).
	for i, rec := range all {
		for _, person := range rec.people {
			if b.rng.Intn(5) == 0 {
				other := all[b.rng.Intn(len(all))]
				if len(other.courses) > 0 && b.rng.Intn(len(all)) != i {
					b.add(person, takesCourse, other.courses[b.rng.Intn(len(other.courses))])
				}
			}
		}
	}
	return &Dataset{Name: "uobm", Dict: b.dict, Graph: b.g, DomainKey: MarkerKey("univ")}
}
