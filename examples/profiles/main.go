// Profiles: a semantic overlay in a non-geometric metric space.
//
// Topology construction is routinely used to cluster users by interest
// profile for decentralized recommendation (Gossple, WhatsUp — see the
// paper's Sec. II-B). Here profiles are 0/1 topic vectors under the
// Hamming distance: four interest communities of 64 users each, every
// community's members hosted by the same provider.
//
// When one provider (community) goes dark, its interest region of the
// profile space would normally vanish from the overlay — recommendations
// for those topics have nobody to route to. With Polystyrene, surviving
// users adopt the orphaned profiles: the semantic shape of the overlay
// outlives the provider.
//
//	go run ./examples/profiles
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"polystyrene"
	"polystyrene/internal/shape"
)

const (
	topics      = 24 // profile vector length
	communities = 4
)

func main() {
	if err := demo(os.Stdout, 64, 25); err != nil {
		log.Fatal(err)
	}
}

// communityProfile builds a profile for user u of community c: a shared
// 6-topic community core plus a per-user variation topic, so members are
// mutually close under Hamming distance but not identical. The formula
// lives in shape.Profile, shared with poly serve -profiles.
func communityProfile(c, u int) []float64 {
	return shape.Profile(c, u, topics, communities)
}

// coverage reports, for each community, the distance from its canonical
// core profile to the closest live node position — how reachable that
// interest region still is in the overlay.
func coverage(sys *polystyrene.System) []float64 {
	out := make([]float64, communities)
	for c := range out {
		core := communityProfile(c, 0)
		owner := sys.Lookup(core)
		if owner < 0 {
			out[c] = -1
			continue
		}
		pos := sys.NodePosition(owner)
		d := 0.0
		for t := range pos {
			if pos[t] != core[t] {
				d++
			}
		}
		out[c] = d
	}
	return out
}

func demo(out io.Writer, usersPerCommunity, rounds int) error {
	pts := shape.Profiles(usersPerCommunity, topics, communities)
	profiles := make([][]float64, len(pts))
	for i, p := range pts {
		profiles[i] = p
	}

	sys, err := polystyrene.NewSystem(polystyrene.SystemConfig{
		Seed:              11,
		Space:             polystyrene.Hamming(topics),
		Shape:             profiles,
		ReplicationFactor: 6,
	})
	if err != nil {
		return err
	}

	sys.Run(rounds)
	fmt.Fprintln(out, "interest coverage after convergence (Hamming distance to each community core):")
	fmt.Fprintf(out, "  %v\n", coverage(sys))

	// Provider hosting community 1 goes dark: crash every node whose
	// current profile position sits in community 1's core region.
	killed := sys.CrashRegion(func(p []float64) bool {
		hits := 0
		for t := 6; t < 12; t++ { // community 1's core topics
			if p[t] >= 1 {
				hits++
			}
		}
		return hits >= 4
	})
	fmt.Fprintf(out, "\nprovider outage: %d users of community 1 vanished\n", killed)

	sys.Run(rounds)
	fmt.Fprintln(out, "interest coverage after Polystyrene re-shaping:")
	fmt.Fprintf(out, "  %v\n", coverage(sys))
	fmt.Fprintf(out, "\n%.1f%% of all user profiles survived and are still routable (K=6)\n",
		100*sys.Reliability())
	return nil
}
