"""Square complexes with vertical and horizontal edges.

The package covers validation (structure, label alternation, curvature),
hyperplanes with sidedness and cleanness, finite covers as permutation
data, gluing constructions on pointed pairs, and bounded semi-decision
searches with checkable witnesses.
"""

from .complexes import (CellularMap, Edge, EdgePath, PointedVHPair,
                        SquareComplex, Subdivision, ValidationReport,
                        Violation, check_npc, check_vh, components,
                        concatenate, euler_characteristic, identity_map,
                        is_closed, is_connected_complex, is_simple_loop,
                        map_path,
                        path_end, pointed_pair, reverse_path,
                        subdivide_edges, subdivide_path, trace, validate,
                        validate_cellular_map)
from .constructions import (CrushMap, DoubledComplex, PairItem,
                            PresentationWedge, RelatorAttachment,
                            attach_loop, attach_relators, crush_word,
                            double_along_loop, enumerate_simple_loops,
                            pair_enumerator, presentation_complex)
from .covers import (Cover, RegularClosure, TotalSpace,
                     cover_from_assignment, enumerate_covers, is_connected,
                     is_normal, iter_covers, lift_path, monodromy,
                     preimage_cleanness, preimage_hyperplane_components,
                     pullback_cover, regular_closure, total_space, transport,
                     trivial_cover, validate_cover)
from .hyperplanes import (CleanlinessReport, Hyperplane, PushingMap,
                          TwoSidedness, hyperplane_of_edge, hyperplanes,
                          inter_osculates, is_clean, is_complex_clean,
                          is_special, is_two_sided, pushing_map,
                          self_crossing)
from .presentations import (GroupPresentation, Pi1Presentation, parse_word,
                            pi1_presentation, word_to_string)
from .search import (EXHAUSTED, FOUND, LoopWitness, QuotientWitness,
                     SearchBudget, SearchOutcome, SearchStats,
                     VCleanWitness, clean_cover_from_survival,
                     element_survives, loop_survives,
                     probe_profinite_triviality, revalidate_witness,
                     semi_decide_virtually_clean, survival_from_clean_cover)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
