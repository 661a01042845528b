// Umbrella header: the complete Skil skeleton library.
//
// Skil (Botorog & Kuchen, HPDC 1996) is an imperative language with
// algorithmic skeletons on distributed arrays.  This library is its
// C++20 reproduction: the skeletons are function templates (the C++
// compiler performs the paper's instantiation translation), the
// distributed array is skil::DistArray<T>, and programs run SPMD on
// the Parix-like runtime in parix/.
//
// Paper skeletons:          array_create, array_destroy, array_map,
//                           array_fold, array_copy, array_broadcast_part,
//                           array_gen_mult, array_permute_rows,
//                           array_part_bounds / get_elem / put_elem
//                           (methods on DistArray).
// Future-work extensions:   cyclic and block-cyclic distributions,
//                           border exchange + stencil map, scan,
//                           gather / I/O, the generic pardata construct.
// Functional features:      currying, partial application, operator
//                           sections (skil/functional.h).
#pragma once

#include "skil/dist_array.h"
#include "skil/distribution.h"
#include "skil/farm.h"
#include "skil/functional.h"
#include "skil/index.h"
#include "skil/io.h"
#include "skil/pardata.h"
#include "skil/rows.h"
#include "skil/scan.h"
#include "skil/skeleton_comm.h"
#include "skil/skeleton_create.h"
#include "skil/skeleton_fold.h"
#include "skil/skeleton_gen_mult.h"
#include "skil/skeleton_map.h"
#include "skil/stencil.h"
#include "skil/transpose.h"
