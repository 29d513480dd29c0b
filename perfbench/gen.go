package main

// Seeded input generators. Every generator draws only from the rand.Rand it
// is handed, so one seed always yields byte-identical inputs, and every
// generated manifest carries the verdict it was built to have.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/pkgdb"
)

// input is one manifest with its known answer.
type input struct {
	Name          string `json:"name"`
	Source        string `json:"source"`
	Deterministic bool   `json:"deterministic"`
	Resources     int    `json:"resources"`
}

// fleetPackages are catalog packages that ship a configuration file in a
// directory only their own dependency closure creates, so overwriting the
// file after the package (require set) is deterministic whatever else the
// manifest installs. Every fleet installs all of them; their closures are
// small, so the fleet's own file tree dominates its size.
var fleetPackages = []struct{ name, conf string }{
	{"monit", "/etc/monit/monitrc"},
	{"ngircd", "/etc/ngircd/ngircd.conf"},
	{"openssh-server", "/etc/ssh/sshd_config"},
}

// fleetShape sizes a generated fleet manifest: a directory tree of
// apps × dirs × files managed files under /srv/<name>, plus the first
// pkgs fleetPackages, whose shipped configuration files the manifest
// overwrites.
type fleetShape struct {
	apps, dirs, files, pkgs int
}

// fleetFull is the benchmark's fleet size: 1 + 10 + 90 directories,
// 900 files, and 3 packages with their configuration files, 1007
// resources in all.
var fleetFull = fleetShape{apps: 10, dirs: 9, files: 10, pkgs: 3}

// genFleet generates one fleet manifest. With buggy set, one package's
// configuration file loses its require => Package[...] edge: the missing
// dependency bug class of Sotiropoulos et al., which makes the manifest
// non-deterministic (writing the file first makes the package
// installation collide with it).
func genFleet(rng *rand.Rand, name string, shape fleetShape, buggy bool) input {
	var b strings.Builder
	fmt.Fprintf(&b, "# fleet %s: generated site manifest\n", name)
	n := 0
	bug := -1
	if buggy {
		bug = rng.Intn(shape.pkgs)
	}
	for i, p := range fleetPackages[:shape.pkgs] {
		fmt.Fprintf(&b, "package { '%s': ensure => present }\n", p.name)
		fmt.Fprintf(&b, "file { '%s':\n  content => \"# %s for %s\\nsetting = %d\\n\",\n", p.conf, p.name, name, rng.Intn(1000))
		if i != bug {
			fmt.Fprintf(&b, "  require => Package['%s'],\n", p.name)
		}
		b.WriteString("}\n")
		n += 2
	}
	root := "/srv/" + name
	fmt.Fprintf(&b, "file { '%s': ensure => directory }\n", root)
	n++
	for a := 0; a < shape.apps; a++ {
		app := fmt.Sprintf("%s/app%02d-%s", root, a, word(rng))
		fmt.Fprintf(&b, "file { '%s': ensure => directory }\n", app)
		n++
		for d := 0; d < shape.dirs; d++ {
			dir := fmt.Sprintf("%s/%s%02d", app, word(rng), d)
			fmt.Fprintf(&b, "file { '%s': ensure => directory }\n", dir)
			n++
			for f := 0; f < shape.files; f++ {
				fmt.Fprintf(&b, "file { '%s/f%02d.conf': content => \"key%d = %d\\n\" }\n", dir, f, f, rng.Intn(1<<20))
				n++
			}
		}
	}
	return input{Name: name, Source: b.String(), Deterministic: !buggy, Resources: n}
}

// genFleets generates the fleet-scale corpus: count fleets, of which the
// seeded set of buggy ones (always exactly buggy of them) carries one
// injected missing dependency.
func genFleets(rng *rand.Rand, count, buggy int, shape fleetShape) []input {
	bad := make(map[int]bool, buggy)
	for _, i := range rng.Perm(count)[:buggy] {
		bad[i] = true
	}
	out := make([]input, count)
	for i := range out {
		out[i] = genFleet(rng, fmt.Sprintf("fleet%02d", i), shape, bad[i])
	}
	return out
}

var syllables = []string{"ka", "lo", "mi", "nu", "ra", "se", "ti", "vo", "be", "do", "fe", "gu"}

// word returns a short pronounceable name.
func word(rng *rand.Rand) string {
	return syllables[rng.Intn(len(syllables))] + syllables[rng.Intn(len(syllables))]
}

// roleCatalog is the synthetic package universe the daemon-mix roles
// install from: every service package depends on one of a few mid-level
// libraries, and every library on one common runtime, so any two services
// share part of their dependency closures.
type roleCatalog struct {
	services []string
	packages []*pkgdb.Package
}

// genRoleCatalog generates services service packages over libs libraries.
func genRoleCatalog(rng *rand.Rand, services, libs int) *roleCatalog {
	rc := &roleCatalog{}
	add := func(p *pkgdb.Package) { rc.packages = append(rc.packages, p) }
	rt := &pkgdb.Package{Name: "site-runtime", Version: "1.0"}
	for i := 0; i < 12; i++ {
		rt.Files = append(rt.Files, fmt.Sprintf("/usr/lib/site-runtime/rt%02d.so", i))
	}
	add(rt)
	for l := 0; l < libs; l++ {
		name := fmt.Sprintf("lib%s%d", word(rng), l)
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{"site-runtime"}}
		for i := 0; i < 6; i++ {
			p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/%s%02d.so", name, word(rng), i))
		}
		add(p)
	}
	for s := 0; s < services; s++ {
		name := fmt.Sprintf("svc-%s%03d", word(rng), s)
		lib := rc.packages[1+rng.Intn(libs)].Name
		p := &pkgdb.Package{Name: name, Version: "1.0", Depends: []string{lib}}
		p.Files = append(p.Files, fmt.Sprintf("/etc/%s/%s.conf", name, name))
		for i := 0; i < 4; i++ {
			p.Files = append(p.Files, fmt.Sprintf("/usr/lib/%s/mod%02d", name, i))
		}
		add(p)
		rc.services = append(rc.services, name)
	}
	return rc
}

// provider builds the in-memory catalog serving the roles.
func (rc *roleCatalog) provider() *pkgdb.Catalog {
	c := pkgdb.NewCatalog()
	for _, p := range rc.packages {
		c.Add("ubuntu", p)
	}
	return c
}

// roleSource renders a role manifest installing the given services, each
// with its configuration file overwritten after the package (require set,
// so the role is deterministic by construction).
func roleSource(id string, services []string, rng *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# role %s\n", id)
	for _, s := range services {
		fmt.Fprintf(&b, "package { '%s': ensure => present }\n", s)
		fmt.Fprintf(&b, "file { '/etc/%s/%s.conf':\n  content => \"workers = %d\\n\",\n  require => Package['%s'],\n}\n",
			s, s, 1+rng.Intn(64), s)
	}
	return b.String()
}

// roleGen draws fresh role manifests: each new role installs width
// services and contains at least one pair of services no earlier role
// combined, so its semantic-commutativity queries cannot all be answered
// from the verdict cache.
type roleGen struct {
	rng   *rand.Rand
	cat   *roleCatalog
	width int
	seen  map[[2]string]bool
	n     int
}

func newRoleGen(rng *rand.Rand, cat *roleCatalog, width int) *roleGen {
	return &roleGen{rng: rng, cat: cat, width: width, seen: make(map[[2]string]bool)}
}

// next returns a fresh role manifest (deterministic by construction).
func (g *roleGen) next() input {
	for {
		idx := g.rng.Perm(len(g.cat.services))[:g.width]
		sort.Ints(idx)
		svcs := make([]string, len(idx))
		for i, j := range idx {
			svcs[i] = g.cat.services[j]
		}
		fresh := false
		for i := range svcs {
			for j := i + 1; j < len(svcs); j++ {
				if !g.seen[[2]string{svcs[i], svcs[j]}] {
					fresh = true
				}
			}
		}
		if !fresh {
			continue
		}
		for i := range svcs {
			for j := i + 1; j < len(svcs); j++ {
				g.seen[[2]string{svcs[i], svcs[j]}] = true
			}
		}
		g.n++
		id := fmt.Sprintf("r%04d", g.n)
		return input{Name: id, Source: roleSource(id, svcs, g.rng), Deterministic: true, Resources: 2 * len(svcs)}
	}
}
