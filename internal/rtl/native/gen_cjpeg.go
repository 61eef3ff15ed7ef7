// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_cjpeg_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[60]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v15 := vals[15]
	v23 := vals[23]
	v53 := vals[53]
	v57 := vals[57]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v42 uint64
			if v15 != 0x0 {
				v42 = 1
			}
			v44 := (v15 - 0x1) & 0x7f
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v15
			}
			var v48 uint64
			if v7 != 0x0 {
				v48 = 1
			}
			v50 := (v7 - 0x1) & 0xf
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v7
			}
			v35 := v23
			v46 := v45
			v52 := v51
			v56 := v53
			v59 := v57
			n1 := v35
			n2 := v46
			n3 := v52
			n4 := v56
			n5 := v59
			v0 = 0x1
			v23 = n1
			v15 = n2
			v7 = n3
			v53 = n4
			v57 = n5
		case 0x1:
			var v42 uint64
			if v15 != 0x0 {
				v42 = 1
			}
			v44 := (v15 - 0x1) & 0x7f
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v15
			}
			v58 := (v57 + 0x1) & 0xffffff
			v35 := v23
			v46 := v45
			v56 := v53
			v59 := v58
			n1 := v35
			n2 := v46
			n4 := v56
			n5 := v59
			v0 = 0x2
			v23 = n1
			v15 = n2
			v7 = 0xc
			v53 = n4
			v57 = n5
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v42 uint64
			if v15 != 0x0 {
				v42 = 1
			}
			v44 := (v15 - 0x1) & 0x7f
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v15
			}
			var v48 uint64
			if v7 != 0x0 {
				v48 = 1
			}
			v50 := (v7 - 0x1) & 0xf
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v7
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v30 := v11
			v31 := v30
			v32 := v31
			v35 := v23
			v46 := v45
			v52 := v51
			v56 := v53
			v59 := v57
			n0 := v32
			n1 := v35
			n2 := v46
			n3 := v52
			n4 := v56
			n5 := v59
			v0 = n0
			v23 = n1
			v15 = n2
			v7 = n3
			v53 = n4
			v57 = n5
		case 0x3:
			var v36 uint64
			if addr := uint64(v23); addr < uint64(len(m0)) {
				v36 = m0[addr] & 0x3fffff
			}
			v38 := v36 & 0x3f
			v39 := v38
			v41 := (v39 + 0x3) & 0x7f
			var v48 uint64
			if v7 != 0x0 {
				v48 = 1
			}
			v50 := (v7 - 0x1) & 0xf
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v7
			}
			v55 := (v53 + 0x1) & 0xffffff
			v35 := v23
			v46 := v41
			v52 := v51
			v56 := v55
			v59 := v57
			n1 := v35
			n2 := v46
			n3 := v52
			n4 := v56
			n5 := v59
			v0 = 0x4
			v23 = n1
			v15 = n2
			v7 = n3
			v53 = n4
			v57 = n5
		case 0x4:
			var v17 uint64
			if v15 == 0x0 {
				v17 = 1
			}
			var v42 uint64
			if v15 != 0x0 {
				v42 = 1
			}
			v44 := (v15 - 0x1) & 0x7f
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v15
			}
			var v48 uint64
			if v7 != 0x0 {
				v48 = 1
			}
			v50 := (v7 - 0x1) & 0xf
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v7
			}
			var v19 uint64
			if v17 != 0 {
				v19 = 0x5
			} else {
				v19 = 0x4
			}
			v28 := v19
			v29 := v28
			v30 := v29
			v31 := v30
			v32 := v31
			v35 := v23
			v46 := v45
			v52 := v51
			v56 := v53
			v59 := v57
			n0 := v32
			n1 := v35
			n2 := v46
			n3 := v52
			n4 := v56
			n5 := v59
			v0 = n0
			v23 = n1
			v15 = n2
			v7 = n3
			v53 = n4
			v57 = n5
		case 0x5:
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0x7ff
			}
			var v24 uint64
			if v22 <= v23 {
				v24 = 1
			}
			var v26 uint64
			if v24 != 0 {
				v26 = 0x6
			} else {
				v26 = 0x1
			}
			v34 := (v23 + 0x1) & 0x7ff
			var v42 uint64
			if v15 != 0x0 {
				v42 = 1
			}
			v44 := (v15 - 0x1) & 0x7f
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v15
			}
			var v48 uint64
			if v7 != 0x0 {
				v48 = 1
			}
			v50 := (v7 - 0x1) & 0xf
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v7
			}
			v27 := v26
			v28 := v27
			v29 := v28
			v30 := v29
			v31 := v30
			v32 := v31
			v35 := v34
			v46 := v45
			v52 := v51
			v56 := v53
			v59 := v57
			n0 := v32
			n1 := v35
			n2 := v46
			n3 := v52
			n4 := v56
			n5 := v59
			v0 = n0
			v23 = n1
			v15 = n2
			v7 = n3
			v53 = n4
			v57 = n5
		case 0x6:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v17 uint64
			if v15 == 0x0 {
				v17 = 1
			}
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0x7ff
			}
			var v24 uint64
			if v22 <= v23 {
				v24 = 1
			}
			var v26 uint64
			if v24 != 0 {
				v26 = 0x6
			} else {
				v26 = 0x1
			}
			v34 := (v23 + 0x1) & 0x7ff
			var v36 uint64
			if addr := uint64(v23); addr < uint64(len(m0)) {
				v36 = m0[addr] & 0x3fffff
			}
			v38 := v36 & 0x3f
			v39 := v38
			v41 := (v39 + 0x3) & 0x7f
			var v42 uint64
			if v15 != 0x0 {
				v42 = 1
			}
			v44 := (v15 - 0x1) & 0x7f
			var v45 uint64
			if v42 != 0 {
				v45 = v44
			} else {
				v45 = v15
			}
			var v48 uint64
			if v7 != 0x0 {
				v48 = 1
			}
			v50 := (v7 - 0x1) & 0xf
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v7
			}
			v55 := (v53 + 0x1) & 0xffffff
			v58 := (v57 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = v0
			}
			var v12 uint64
			if v0 == 0x3 {
				v12 = 1
			}
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v19 uint64
			if v17 != 0 {
				v19 = 0x5
			} else {
				v19 = v0
			}
			var v20 uint64
			if v0 == 0x5 {
				v20 = 1
			}
			var v27 uint64
			if v20 != 0 {
				v27 = v26
			} else {
				v27 = v0
			}
			var v28 uint64
			if v14 != 0 {
				v28 = v19
			} else {
				v28 = v27
			}
			var v29 uint64
			if v12 != 0 {
				v29 = 0x4
			} else {
				v29 = v28
			}
			var v30 uint64
			if v6 != 0 {
				v30 = v11
			} else {
				v30 = v29
			}
			var v31 uint64
			if v4 != 0 {
				v31 = 0x2
			} else {
				v31 = v30
			}
			var v32 uint64
			if v2 != 0 {
				v32 = 0x1
			} else {
				v32 = v31
			}
			var v35 uint64
			if v20 != 0 {
				v35 = v34
			} else {
				v35 = v23
			}
			var v46 uint64
			if v12 != 0 {
				v46 = v41
			} else {
				v46 = v45
			}
			var v52 uint64
			if v4 != 0 {
				v52 = 0xc
			} else {
				v52 = v51
			}
			var v56 uint64
			if v12 != 0 {
				v56 = v55
			} else {
				v56 = v53
			}
			var v59 uint64
			if v4 != 0 {
				v59 = v58
			} else {
				v59 = v57
			}
			var v60 uint64
			if v0 == 0x6 {
				v60 = 1
			}
			if v60 != 0 {
				break loop
			}
			n0 := v32
			n1 := v35
			n2 := v46
			n3 := v52
			n4 := v56
			n5 := v59
			v0 = n0
			v23 = n1
			v15 = n2
			v7 = n3
			v53 = n4
			v57 = n5
		}
	}
	vals[0] = v0
	vals[23] = v23
	vals[15] = v15
	vals[7] = v7
	vals[53] = v53
	vals[57] = v57
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v17 uint64
	if v15 == 0x0 {
		v17 = 1
	}
	vals[17] = v17
	var v22 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v22 = m0[addr] & 0x7ff
	}
	vals[22] = v22
	var v24 uint64
	if v22 <= v23 {
		v24 = 1
	}
	vals[24] = v24
	var v26 uint64
	if v24 != 0 {
		v26 = 0x6
	} else {
		v26 = 0x1
	}
	vals[26] = v26
	v34 := (v23 + 0x1) & 0x7ff
	vals[34] = v34
	var v36 uint64
	if addr := uint64(v23); addr < uint64(len(m0)) {
		v36 = m0[addr] & 0x3fffff
	}
	vals[36] = v36
	v38 := v36 & 0x3f
	vals[38] = v38
	v39 := v38
	vals[39] = v39
	v41 := (v39 + 0x3) & 0x7f
	vals[41] = v41
	var v42 uint64
	if v15 != 0x0 {
		v42 = 1
	}
	vals[42] = v42
	v44 := (v15 - 0x1) & 0x7f
	vals[44] = v44
	var v45 uint64
	if v42 != 0 {
		v45 = v44
	} else {
		v45 = v15
	}
	vals[45] = v45
	var v48 uint64
	if v7 != 0x0 {
		v48 = 1
	}
	vals[48] = v48
	v50 := (v7 - 0x1) & 0xf
	vals[50] = v50
	var v51 uint64
	if v48 != 0 {
		v51 = v50
	} else {
		v51 = v7
	}
	vals[51] = v51
	v55 := (v53 + 0x1) & 0xffffff
	vals[55] = v55
	v58 := (v57 + 0x1) & 0xffffff
	vals[58] = v58
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x0
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[14] = 0x0
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x0
		}
		vals[19] = v19
		vals[20] = 0x0
		vals[27] = 0x0
		vals[28] = 0x0
		vals[29] = 0x0
		vals[30] = 0x0
		vals[31] = 0x0
		vals[32] = 0x1
		v35 := v23
		vals[35] = v35
		v46 := v45
		vals[46] = v46
		v52 := v51
		vals[52] = v52
		v56 := v53
		vals[56] = v56
		v59 := v57
		vals[59] = v59
		vals[60] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x1
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[14] = 0x0
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x1
		}
		vals[19] = v19
		vals[20] = 0x0
		vals[27] = 0x1
		vals[28] = 0x1
		vals[29] = 0x1
		vals[30] = 0x1
		vals[31] = 0x2
		vals[32] = 0x2
		v35 := v23
		vals[35] = v35
		v46 := v45
		vals[46] = v46
		vals[52] = 0xc
		v56 := v53
		vals[56] = v56
		v59 := v58
		vals[59] = v59
		vals[60] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x2
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[14] = 0x0
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x2
		}
		vals[19] = v19
		vals[20] = 0x0
		vals[27] = 0x2
		vals[28] = 0x2
		vals[29] = 0x2
		v30 := v11
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v35 := v23
		vals[35] = v35
		v46 := v45
		vals[46] = v46
		v52 := v51
		vals[52] = v52
		v56 := v53
		vals[56] = v56
		v59 := v57
		vals[59] = v59
		vals[60] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x3
		}
		vals[11] = v11
		vals[12] = 0x1
		vals[14] = 0x0
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x3
		}
		vals[19] = v19
		vals[20] = 0x0
		vals[27] = 0x3
		vals[28] = 0x3
		vals[29] = 0x4
		vals[30] = 0x4
		vals[31] = 0x4
		vals[32] = 0x4
		v35 := v23
		vals[35] = v35
		v46 := v41
		vals[46] = v46
		v52 := v51
		vals[52] = v52
		v56 := v55
		vals[56] = v56
		v59 := v57
		vals[59] = v59
		vals[60] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x4
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[14] = 0x1
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x4
		}
		vals[19] = v19
		vals[20] = 0x0
		vals[27] = 0x4
		v28 := v19
		vals[28] = v28
		v29 := v28
		vals[29] = v29
		v30 := v29
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v35 := v23
		vals[35] = v35
		v46 := v45
		vals[46] = v46
		v52 := v51
		vals[52] = v52
		v56 := v53
		vals[56] = v56
		v59 := v57
		vals[59] = v59
		vals[60] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x5
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[14] = 0x0
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x5
		}
		vals[19] = v19
		vals[20] = 0x1
		v27 := v26
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v29 := v28
		vals[29] = v29
		v30 := v29
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v35 := v34
		vals[35] = v35
		v46 := v45
		vals[46] = v46
		v52 := v51
		vals[52] = v52
		v56 := v53
		vals[56] = v56
		v59 := v57
		vals[59] = v59
		vals[60] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x6
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[14] = 0x0
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = 0x6
		}
		vals[19] = v19
		vals[20] = 0x0
		vals[27] = 0x6
		vals[28] = 0x6
		vals[29] = 0x6
		vals[30] = 0x6
		vals[31] = 0x6
		vals[32] = 0x6
		v35 := v23
		vals[35] = v35
		v46 := v45
		vals[46] = v46
		v52 := v51
		vals[52] = v52
		v56 := v53
		vals[56] = v56
		v59 := v57
		vals[59] = v59
		vals[60] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = v0
		}
		vals[11] = v11
		var v12 uint64
		if v0 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		var v14 uint64
		if v0 == 0x4 {
			v14 = 1
		}
		vals[14] = v14
		var v19 uint64
		if v17 != 0 {
			v19 = 0x5
		} else {
			v19 = v0
		}
		vals[19] = v19
		var v20 uint64
		if v0 == 0x5 {
			v20 = 1
		}
		vals[20] = v20
		var v27 uint64
		if v20 != 0 {
			v27 = v26
		} else {
			v27 = v0
		}
		vals[27] = v27
		var v28 uint64
		if v14 != 0 {
			v28 = v19
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v29 uint64
		if v12 != 0 {
			v29 = 0x4
		} else {
			v29 = v28
		}
		vals[29] = v29
		var v30 uint64
		if v6 != 0 {
			v30 = v11
		} else {
			v30 = v29
		}
		vals[30] = v30
		var v31 uint64
		if v4 != 0 {
			v31 = 0x2
		} else {
			v31 = v30
		}
		vals[31] = v31
		var v32 uint64
		if v2 != 0 {
			v32 = 0x1
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v35 uint64
		if v20 != 0 {
			v35 = v34
		} else {
			v35 = v23
		}
		vals[35] = v35
		var v46 uint64
		if v12 != 0 {
			v46 = v41
		} else {
			v46 = v45
		}
		vals[46] = v46
		var v52 uint64
		if v4 != 0 {
			v52 = 0xc
		} else {
			v52 = v51
		}
		vals[52] = v52
		var v56 uint64
		if v12 != 0 {
			v56 = v55
		} else {
			v56 = v53
		}
		vals[56] = v56
		var v59 uint64
		if v4 != 0 {
			v59 = v58
		} else {
			v59 = v57
		}
		vals[59] = v59
		var v60 uint64
		if v0 == 0x6 {
			v60 = 1
		}
		vals[60] = v60
	}
	done := vals[60] != 0
	l0 := vals[32] & 0x7
	l1 := vals[35] & 0x7ff
	l2 := vals[46] & 0x7f
	l3 := vals[52] & 0xf
	l4 := vals[56] & 0xffffff
	l5 := vals[59] & 0xffffff
	vals[0] = l0
	vals[23] = l1
	vals[15] = l2
	vals[7] = l3
	vals[53] = l4
	vals[57] = l5
	return cycles + 1, done
}

func step_cjpeg_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[86]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v30 := vals[30]
	v40 := vals[40]
	v44 := vals[44]
	v45 := vals[45]
	v49 := vals[49]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	v72 := vals[72]
	v77 := vals[77]
	v82 := vals[82]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v84 := (v82 + 0x1) & 0xffffff
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v84
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = 0x1
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		case 0x1:
			v47 := (v45 + 0xc) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v80 := (v77 + 0x1) & 0xffffff
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v47
			v51 := v50
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v80
			v85 := v82
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = 0x2
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		case 0x2:
			v75 := (v72 + 0x1) & 0xffffff
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v75
			v81 := v77
			v85 := v82
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = 0x3
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		case 0x3:
			var v31 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v31 = m0[addr] & 0x3fffff
			}
			v33 := v31 & 0x3f
			v35 := v33
			v37 := (v35 + 0x3) & 0x7f
			v38 := (v30 + v37) & 0xffffff
			v42 := (v40 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v27 := v15
			v39 := v38
			v43 := v42
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v70
			v76 := v72
			v81 := v77
			v85 := v82
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = 0x4
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		case 0x4:
			v65 := (v62 + 0x1) & 0xffffff
			v27 := v15
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			v56 := v52
			v61 := v57
			v66 := v65
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = 0x5
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		case 0x5:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			v55 := (v52 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v39 := v30
			v43 := v40
			v48 := v45
			v51 := v49
			var v53 uint64
			if v24 == 0x1 {
				v53 = 1
			}
			v54 := v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x6 {
				v58 = 1
			}
			v59 := v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			n0 := v24
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = n0
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		case 0x6:
			break loop
		default:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			var v31 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v31 = m0[addr] & 0x3fffff
			}
			v33 := v31 & 0x3f
			v35 := v33
			v37 := (v35 + 0x3) & 0x7f
			v38 := (v30 + v37) & 0xffffff
			v42 := (v40 + 0x1) & 0xffffff
			v47 := (v45 + 0xc) & 0xffffff
			v50 := (v49 + 0x1) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v75 := (v72 + 0x1) & 0xffffff
			v80 := (v77 + 0x1) & 0xffffff
			v84 := (v82 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v10 != 0 {
				v20 = 0x5
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = 0x4
			} else {
				v21 = v20
			}
			var v22 uint64
			if v6 != 0 {
				v22 = 0x3
			} else {
				v22 = v21
			}
			var v23 uint64
			if v4 != 0 {
				v23 = 0x2
			} else {
				v23 = v22
			}
			var v24 uint64
			if v2 != 0 {
				v24 = 0x1
			} else {
				v24 = v23
			}
			var v27 uint64
			if v12 != 0 {
				v27 = v26
			} else {
				v27 = v15
			}
			var v39 uint64
			if v8 != 0 {
				v39 = v38
			} else {
				v39 = v30
			}
			var v43 uint64
			if v8 != 0 {
				v43 = v42
			} else {
				v43 = v40
			}
			var v48 uint64
			if v4 != 0 {
				v48 = v47
			} else {
				v48 = v45
			}
			var v51 uint64
			if v4 != 0 {
				v51 = v50
			} else {
				v51 = v49
			}
			var v53 uint64
			if v24 == 0x1 {
				v53 = 1
			}
			v54 := v12 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x6 {
				v58 = 1
			}
			v59 := v12 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x5 {
				v63 = 1
			}
			v64 := v10 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v24 == 0x4 {
				v68 = 1
			}
			v69 := v8 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v73 uint64
			if v24 == 0x3 {
				v73 = 1
			}
			v74 := v6 & v73
			var v76 uint64
			if v74 != 0 {
				v76 = v75
			} else {
				v76 = v72
			}
			var v78 uint64
			if v24 == 0x2 {
				v78 = 1
			}
			v79 := v4 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := v2 & v53
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			var v86 uint64
			if v0 == 0x6 {
				v86 = 1
			}
			if v86 != 0 {
				break loop
			}
			n0 := v24
			n1 := v27
			n3 := v39
			n4 := v43
			n6 := v48
			n7 := v51
			n8 := v56
			n9 := v61
			n10 := v66
			n11 := v71
			n12 := v76
			n13 := v81
			n14 := v85
			v0 = n0
			v15 = n1
			v28 = 0x0
			v30 = n3
			v40 = n4
			v44 = 0x0
			v45 = n6
			v49 = n7
			v52 = n8
			v57 = n9
			v62 = n10
			v67 = n11
			v72 = n12
			v77 = n13
			v82 = n14
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[30] = v30
	vals[40] = v40
	vals[44] = v44
	vals[45] = v45
	vals[49] = v49
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	vals[72] = v72
	vals[77] = v77
	vals[82] = v82
	var v14 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0x7ff
	}
	vals[14] = v14
	var v16 uint64
	if v14 <= v15 {
		v16 = 1
	}
	vals[16] = v16
	var v18 uint64
	if v16 != 0 {
		v18 = 0x6
	} else {
		v18 = 0x1
	}
	vals[18] = v18
	v26 := (v15 + 0x1) & 0x7ff
	vals[26] = v26
	var v31 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v31 = m0[addr] & 0x3fffff
	}
	vals[31] = v31
	v33 := v31 & 0x3f
	vals[33] = v33
	v35 := v33
	vals[35] = v35
	v37 := (v35 + 0x3) & 0x7f
	vals[37] = v37
	v38 := (v30 + v37) & 0xffffff
	vals[38] = v38
	v42 := (v40 + 0x1) & 0xffffff
	vals[42] = v42
	v47 := (v45 + 0xc) & 0xffffff
	vals[47] = v47
	v50 := (v49 + 0x1) & 0xffffff
	vals[50] = v50
	v55 := (v52 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
	v75 := (v72 + 0x1) & 0xffffff
	vals[75] = v75
	v80 := (v77 + 0x1) & 0xffffff
	vals[80] = v80
	v84 := (v82 + 0x1) & 0xffffff
	vals[84] = v84
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[24] = 0x1
		v27 := v15
		vals[27] = v27
		v39 := v30
		vals[39] = v39
		v43 := v40
		vals[43] = v43
		v48 := v45
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x1
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x1
		v85 := v84
		vals[85] = v85
		vals[86] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x1
		vals[23] = 0x2
		vals[24] = 0x2
		v27 := v15
		vals[27] = v27
		v39 := v30
		vals[39] = v39
		v43 := v40
		vals[43] = v43
		v48 := v47
		vals[48] = v48
		v51 := v50
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x1
		vals[79] = 0x1
		v81 := v80
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x2
		vals[22] = 0x3
		vals[23] = 0x3
		vals[24] = 0x3
		v27 := v15
		vals[27] = v27
		v39 := v30
		vals[39] = v39
		v43 := v40
		vals[43] = v43
		v48 := v45
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x1
		vals[74] = 0x1
		v76 := v75
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x3
		vals[20] = 0x3
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[24] = 0x4
		v27 := v15
		vals[27] = v27
		v39 := v38
		vals[39] = v39
		v43 := v42
		vals[43] = v43
		v48 := v45
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x1
		vals[69] = 0x1
		v71 := v70
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[19] = 0x4
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[24] = 0x5
		v27 := v15
		vals[27] = v27
		v39 := v30
		vals[39] = v39
		v43 := v40
		vals[43] = v43
		v48 := v45
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x1
		vals[64] = 0x1
		v66 := v65
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v27 := v26
		vals[27] = v27
		v39 := v30
		vals[39] = v39
		v43 := v40
		vals[43] = v43
		v48 := v45
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		var v53 uint64
		if v24 == 0x1 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v24 == 0x6 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v24 == 0x5 {
			v63 = 1
		}
		vals[63] = v63
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		var v68 uint64
		if v24 == 0x4 {
			v68 = 1
		}
		vals[68] = v68
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		var v73 uint64
		if v24 == 0x3 {
			v73 = 1
		}
		vals[73] = v73
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		var v78 uint64
		if v24 == 0x2 {
			v78 = 1
		}
		vals[78] = v78
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[24] = 0x6
		v27 := v15
		vals[27] = v27
		v39 := v30
		vals[39] = v39
		v43 := v40
		vals[43] = v43
		v48 := v45
		vals[48] = v48
		v51 := v49
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
			v12 = 1
		}
		vals[12] = v12
		var v19 uint64
		if v12 != 0 {
			v19 = v18
		} else {
			v19 = v0
		}
		vals[19] = v19
		var v20 uint64
		if v10 != 0 {
			v20 = 0x5
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 != 0 {
			v21 = 0x4
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v6 != 0 {
			v22 = 0x3
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v4 != 0 {
			v23 = 0x2
		} else {
			v23 = v22
		}
		vals[23] = v23
		var v24 uint64
		if v2 != 0 {
			v24 = 0x1
		} else {
			v24 = v23
		}
		vals[24] = v24
		var v27 uint64
		if v12 != 0 {
			v27 = v26
		} else {
			v27 = v15
		}
		vals[27] = v27
		var v39 uint64
		if v8 != 0 {
			v39 = v38
		} else {
			v39 = v30
		}
		vals[39] = v39
		var v43 uint64
		if v8 != 0 {
			v43 = v42
		} else {
			v43 = v40
		}
		vals[43] = v43
		var v48 uint64
		if v4 != 0 {
			v48 = v47
		} else {
			v48 = v45
		}
		vals[48] = v48
		var v51 uint64
		if v4 != 0 {
			v51 = v50
		} else {
			v51 = v49
		}
		vals[51] = v51
		var v53 uint64
		if v24 == 0x1 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v12 & v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v24 == 0x6 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v12 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v24 == 0x5 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v10 & v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v68 uint64
		if v24 == 0x4 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v8 & v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v73 uint64
		if v24 == 0x3 {
			v73 = 1
		}
		vals[73] = v73
		v74 := v6 & v73
		vals[74] = v74
		var v76 uint64
		if v74 != 0 {
			v76 = v75
		} else {
			v76 = v72
		}
		vals[76] = v76
		var v78 uint64
		if v24 == 0x2 {
			v78 = 1
		}
		vals[78] = v78
		v79 := v4 & v78
		vals[79] = v79
		var v81 uint64
		if v79 != 0 {
			v81 = v80
		} else {
			v81 = v77
		}
		vals[81] = v81
		v83 := v2 & v53
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v82
		}
		vals[85] = v85
		var v86 uint64
		if v0 == 0x6 {
			v86 = 1
		}
		vals[86] = v86
	}
	done := vals[86] != 0
	l0 := vals[24] & 0x7
	l1 := vals[27] & 0x7ff
	l2 := vals[29] & 0xffffff
	l3 := vals[39] & 0xffffff
	l4 := vals[43] & 0xffffff
	l5 := vals[29] & 0xffffff
	l6 := vals[48] & 0xffffff
	l7 := vals[51] & 0xffffff
	l8 := vals[56] & 0xffffff
	l9 := vals[61] & 0xffffff
	l10 := vals[66] & 0xffffff
	l11 := vals[71] & 0xffffff
	l12 := vals[76] & 0xffffff
	l13 := vals[81] & 0xffffff
	l14 := vals[85] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[28] = l2
	vals[30] = l3
	vals[40] = l4
	vals[44] = l5
	vals[45] = l6
	vals[49] = l7
	vals[52] = l8
	vals[57] = l9
	vals[62] = l10
	vals[67] = l11
	vals[72] = l12
	vals[77] = l13
	vals[82] = l14
	return cycles + 1, done
}

func step_cjpeg_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[74]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v38 := vals[38]
	v42 := vals[42]
	v46 := vals[46]
	v49 := vals[49]
	v54 := vals[54]
	v59 := vals[59]
	v64 := vals[64]
	v69 := vals[69]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v64
			v73 := v69
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = 0x1
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		case 0x1:
			v44 := (v42 + 0xc) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v72 := (v69 + 0x1) & 0xffffff
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v44
			v48 := v47
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v64
			v73 := v72
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = 0x2
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		case 0x2:
			v67 := (v64 + 0x1) & 0xffffff
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v59
			v68 := v67
			v73 := v69
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = 0x3
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		case 0x3:
			var v29 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v29 = m0[addr] & 0x3fffff
			}
			v31 := v29 & 0x3f
			v33 := v31
			v35 := (v33 + 0x3) & 0x7f
			v36 := (v28 + v35) & 0xffffff
			v40 := (v38 + 0x1) & 0xffffff
			v62 := (v59 + 0x1) & 0xffffff
			v27 := v15
			v37 := v36
			v41 := v40
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v54
			v63 := v62
			v68 := v64
			v73 := v69
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = 0x4
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		case 0x4:
			v57 := (v54 + 0x1) & 0xffffff
			v27 := v15
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			v53 := v49
			v58 := v57
			v63 := v59
			v68 := v64
			v73 := v69
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = 0x5
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		case 0x5:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			v52 := (v49 + 0x1) & 0xffffff
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v37 := v28
			v41 := v38
			v45 := v42
			v48 := v46
			var v50 uint64
			if v24 == 0x1 {
				v50 = 1
			}
			v51 := v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			v58 := v54
			v63 := v59
			v68 := v64
			v73 := v69
			n0 := v24
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = n0
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		case 0x6:
			break loop
		default:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x6
			} else {
				v18 = 0x1
			}
			v26 := (v15 + 0x1) & 0x7ff
			var v29 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v29 = m0[addr] & 0x3fffff
			}
			v31 := v29 & 0x3f
			v33 := v31
			v35 := (v33 + 0x3) & 0x7f
			v36 := (v28 + v35) & 0xffffff
			v40 := (v38 + 0x1) & 0xffffff
			v44 := (v42 + 0xc) & 0xffffff
			v47 := (v46 + 0x1) & 0xffffff
			v52 := (v49 + 0x1) & 0xffffff
			v57 := (v54 + 0x1) & 0xffffff
			v62 := (v59 + 0x1) & 0xffffff
			v67 := (v64 + 0x1) & 0xffffff
			v72 := (v69 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v10 uint64
			if v0 == 0x4 {
				v10 = 1
			}
			var v12 uint64
			if v0 == 0x5 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v10 != 0 {
				v20 = 0x5
			} else {
				v20 = v19
			}
			var v21 uint64
			if v8 != 0 {
				v21 = 0x4
			} else {
				v21 = v20
			}
			var v22 uint64
			if v6 != 0 {
				v22 = 0x3
			} else {
				v22 = v21
			}
			var v23 uint64
			if v4 != 0 {
				v23 = 0x2
			} else {
				v23 = v22
			}
			var v24 uint64
			if v2 != 0 {
				v24 = 0x1
			} else {
				v24 = v23
			}
			var v27 uint64
			if v12 != 0 {
				v27 = v26
			} else {
				v27 = v15
			}
			var v37 uint64
			if v8 != 0 {
				v37 = v36
			} else {
				v37 = v28
			}
			var v41 uint64
			if v8 != 0 {
				v41 = v40
			} else {
				v41 = v38
			}
			var v45 uint64
			if v4 != 0 {
				v45 = v44
			} else {
				v45 = v42
			}
			var v48 uint64
			if v4 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v50 uint64
			if v24 == 0x1 {
				v50 = 1
			}
			v51 := v12 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			var v55 uint64
			if v24 == 0x5 {
				v55 = 1
			}
			v56 := v10 & v55
			var v58 uint64
			if v56 != 0 {
				v58 = v57
			} else {
				v58 = v54
			}
			var v60 uint64
			if v24 == 0x4 {
				v60 = 1
			}
			v61 := v8 & v60
			var v63 uint64
			if v61 != 0 {
				v63 = v62
			} else {
				v63 = v59
			}
			var v65 uint64
			if v24 == 0x3 {
				v65 = 1
			}
			v66 := v6 & v65
			var v68 uint64
			if v66 != 0 {
				v68 = v67
			} else {
				v68 = v64
			}
			var v70 uint64
			if v24 == 0x2 {
				v70 = 1
			}
			v71 := v4 & v70
			var v73 uint64
			if v71 != 0 {
				v73 = v72
			} else {
				v73 = v69
			}
			var v74 uint64
			if v0 == 0x6 {
				v74 = 1
			}
			if v74 != 0 {
				break loop
			}
			n0 := v24
			n1 := v27
			n2 := v37
			n3 := v41
			n4 := v45
			n5 := v48
			n6 := v53
			n7 := v58
			n8 := v63
			n9 := v68
			n10 := v73
			v0 = n0
			v15 = n1
			v28 = n2
			v38 = n3
			v42 = n4
			v46 = n5
			v49 = n6
			v54 = n7
			v59 = n8
			v64 = n9
			v69 = n10
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[38] = v38
	vals[42] = v42
	vals[46] = v46
	vals[49] = v49
	vals[54] = v54
	vals[59] = v59
	vals[64] = v64
	vals[69] = v69
	var v14 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0x7ff
	}
	vals[14] = v14
	var v16 uint64
	if v14 <= v15 {
		v16 = 1
	}
	vals[16] = v16
	var v18 uint64
	if v16 != 0 {
		v18 = 0x6
	} else {
		v18 = 0x1
	}
	vals[18] = v18
	v26 := (v15 + 0x1) & 0x7ff
	vals[26] = v26
	var v29 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v29 = m0[addr] & 0x3fffff
	}
	vals[29] = v29
	v31 := v29 & 0x3f
	vals[31] = v31
	v33 := v31
	vals[33] = v33
	v35 := (v33 + 0x3) & 0x7f
	vals[35] = v35
	v36 := (v28 + v35) & 0xffffff
	vals[36] = v36
	v40 := (v38 + 0x1) & 0xffffff
	vals[40] = v40
	v44 := (v42 + 0xc) & 0xffffff
	vals[44] = v44
	v47 := (v46 + 0x1) & 0xffffff
	vals[47] = v47
	v52 := (v49 + 0x1) & 0xffffff
	vals[52] = v52
	v57 := (v54 + 0x1) & 0xffffff
	vals[57] = v57
	v62 := (v59 + 0x1) & 0xffffff
	vals[62] = v62
	v67 := (v64 + 0x1) & 0xffffff
	vals[67] = v67
	v72 := (v69 + 0x1) & 0xffffff
	vals[72] = v72
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x0
		vals[23] = 0x0
		vals[24] = 0x1
		v27 := v15
		vals[27] = v27
		v37 := v28
		vals[37] = v37
		v41 := v38
		vals[41] = v41
		v45 := v42
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		vals[50] = 0x1
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		vals[56] = 0x0
		v58 := v54
		vals[58] = v58
		vals[60] = 0x0
		vals[61] = 0x0
		v63 := v59
		vals[63] = v63
		vals[65] = 0x0
		vals[66] = 0x0
		v68 := v64
		vals[68] = v68
		vals[70] = 0x0
		vals[71] = 0x0
		v73 := v69
		vals[73] = v73
		vals[74] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x1
		vals[22] = 0x1
		vals[23] = 0x2
		vals[24] = 0x2
		v27 := v15
		vals[27] = v27
		v37 := v28
		vals[37] = v37
		v41 := v38
		vals[41] = v41
		v45 := v44
		vals[45] = v45
		v48 := v47
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		vals[56] = 0x0
		v58 := v54
		vals[58] = v58
		vals[60] = 0x0
		vals[61] = 0x0
		v63 := v59
		vals[63] = v63
		vals[65] = 0x0
		vals[66] = 0x0
		v68 := v64
		vals[68] = v68
		vals[70] = 0x1
		vals[71] = 0x1
		v73 := v72
		vals[73] = v73
		vals[74] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x2
		vals[20] = 0x2
		vals[21] = 0x2
		vals[22] = 0x3
		vals[23] = 0x3
		vals[24] = 0x3
		v27 := v15
		vals[27] = v27
		v37 := v28
		vals[37] = v37
		v41 := v38
		vals[41] = v41
		v45 := v42
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		vals[56] = 0x0
		v58 := v54
		vals[58] = v58
		vals[60] = 0x0
		vals[61] = 0x0
		v63 := v59
		vals[63] = v63
		vals[65] = 0x1
		vals[66] = 0x1
		v68 := v67
		vals[68] = v68
		vals[70] = 0x0
		vals[71] = 0x0
		v73 := v69
		vals[73] = v73
		vals[74] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x3
		vals[20] = 0x3
		vals[21] = 0x4
		vals[22] = 0x4
		vals[23] = 0x4
		vals[24] = 0x4
		v27 := v15
		vals[27] = v27
		v37 := v36
		vals[37] = v37
		v41 := v40
		vals[41] = v41
		v45 := v42
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		vals[56] = 0x0
		v58 := v54
		vals[58] = v58
		vals[60] = 0x1
		vals[61] = 0x1
		v63 := v62
		vals[63] = v63
		vals[65] = 0x0
		vals[66] = 0x0
		v68 := v64
		vals[68] = v68
		vals[70] = 0x0
		vals[71] = 0x0
		v73 := v69
		vals[73] = v73
		vals[74] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		vals[19] = 0x4
		vals[20] = 0x5
		vals[21] = 0x5
		vals[22] = 0x5
		vals[23] = 0x5
		vals[24] = 0x5
		v27 := v15
		vals[27] = v27
		v37 := v28
		vals[37] = v37
		v41 := v38
		vals[41] = v41
		v45 := v42
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x1
		vals[56] = 0x1
		v58 := v57
		vals[58] = v58
		vals[60] = 0x0
		vals[61] = 0x0
		v63 := v59
		vals[63] = v63
		vals[65] = 0x0
		vals[66] = 0x0
		v68 := v64
		vals[68] = v68
		vals[70] = 0x0
		vals[71] = 0x0
		v73 := v69
		vals[73] = v73
		vals[74] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v27 := v26
		vals[27] = v27
		v37 := v28
		vals[37] = v37
		v41 := v38
		vals[41] = v41
		v45 := v42
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		var v50 uint64
		if v24 == 0x1 {
			v50 = 1
		}
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		var v53 uint64
		if v51 != 0 {
			v53 = v52
		} else {
			v53 = v49
		}
		vals[53] = v53
		var v55 uint64
		if v24 == 0x5 {
			v55 = 1
		}
		vals[55] = v55
		vals[56] = 0x0
		v58 := v54
		vals[58] = v58
		var v60 uint64
		if v24 == 0x4 {
			v60 = 1
		}
		vals[60] = v60
		vals[61] = 0x0
		v63 := v59
		vals[63] = v63
		var v65 uint64
		if v24 == 0x3 {
			v65 = 1
		}
		vals[65] = v65
		vals[66] = 0x0
		v68 := v64
		vals[68] = v68
		var v70 uint64
		if v24 == 0x2 {
			v70 = 1
		}
		vals[70] = v70
		vals[71] = 0x0
		v73 := v69
		vals[73] = v73
		vals[74] = 0x0
	case 0x6:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		vals[19] = 0x6
		vals[20] = 0x6
		vals[21] = 0x6
		vals[22] = 0x6
		vals[23] = 0x6
		vals[24] = 0x6
		v27 := v15
		vals[27] = v27
		v37 := v28
		vals[37] = v37
		v41 := v38
		vals[41] = v41
		v45 := v42
		vals[45] = v45
		v48 := v46
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		vals[56] = 0x0
		v58 := v54
		vals[58] = v58
		vals[60] = 0x0
		vals[61] = 0x0
		v63 := v59
		vals[63] = v63
		vals[65] = 0x0
		vals[66] = 0x0
		v68 := v64
		vals[68] = v68
		vals[70] = 0x0
		vals[71] = 0x0
		v73 := v69
		vals[73] = v73
		vals[74] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v0 == 0x4 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v0 == 0x5 {
			v12 = 1
		}
		vals[12] = v12
		var v19 uint64
		if v12 != 0 {
			v19 = v18
		} else {
			v19 = v0
		}
		vals[19] = v19
		var v20 uint64
		if v10 != 0 {
			v20 = 0x5
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v8 != 0 {
			v21 = 0x4
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v6 != 0 {
			v22 = 0x3
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v23 uint64
		if v4 != 0 {
			v23 = 0x2
		} else {
			v23 = v22
		}
		vals[23] = v23
		var v24 uint64
		if v2 != 0 {
			v24 = 0x1
		} else {
			v24 = v23
		}
		vals[24] = v24
		var v27 uint64
		if v12 != 0 {
			v27 = v26
		} else {
			v27 = v15
		}
		vals[27] = v27
		var v37 uint64
		if v8 != 0 {
			v37 = v36
		} else {
			v37 = v28
		}
		vals[37] = v37
		var v41 uint64
		if v8 != 0 {
			v41 = v40
		} else {
			v41 = v38
		}
		vals[41] = v41
		var v45 uint64
		if v4 != 0 {
			v45 = v44
		} else {
			v45 = v42
		}
		vals[45] = v45
		var v48 uint64
		if v4 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		var v50 uint64
		if v24 == 0x1 {
			v50 = 1
		}
		vals[50] = v50
		v51 := v12 & v50
		vals[51] = v51
		var v53 uint64
		if v51 != 0 {
			v53 = v52
		} else {
			v53 = v49
		}
		vals[53] = v53
		var v55 uint64
		if v24 == 0x5 {
			v55 = 1
		}
		vals[55] = v55
		v56 := v10 & v55
		vals[56] = v56
		var v58 uint64
		if v56 != 0 {
			v58 = v57
		} else {
			v58 = v54
		}
		vals[58] = v58
		var v60 uint64
		if v24 == 0x4 {
			v60 = 1
		}
		vals[60] = v60
		v61 := v8 & v60
		vals[61] = v61
		var v63 uint64
		if v61 != 0 {
			v63 = v62
		} else {
			v63 = v59
		}
		vals[63] = v63
		var v65 uint64
		if v24 == 0x3 {
			v65 = 1
		}
		vals[65] = v65
		v66 := v6 & v65
		vals[66] = v66
		var v68 uint64
		if v66 != 0 {
			v68 = v67
		} else {
			v68 = v64
		}
		vals[68] = v68
		var v70 uint64
		if v24 == 0x2 {
			v70 = 1
		}
		vals[70] = v70
		v71 := v4 & v70
		vals[71] = v71
		var v73 uint64
		if v71 != 0 {
			v73 = v72
		} else {
			v73 = v69
		}
		vals[73] = v73
		var v74 uint64
		if v0 == 0x6 {
			v74 = 1
		}
		vals[74] = v74
	}
	done := vals[74] != 0
	l0 := vals[24] & 0x7
	l1 := vals[27] & 0x7ff
	l2 := vals[37] & 0xffffff
	l3 := vals[41] & 0xffffff
	l4 := vals[45] & 0xffffff
	l5 := vals[48] & 0xffffff
	l6 := vals[53] & 0xffffff
	l7 := vals[58] & 0xffffff
	l8 := vals[63] & 0xffffff
	l9 := vals[68] & 0xffffff
	l10 := vals[73] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[28] = l2
	vals[38] = l3
	vals[42] = l4
	vals[46] = l5
	vals[49] = l6
	vals[54] = l7
	vals[59] = l8
	vals[64] = l9
	vals[69] = l10
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("123f48dc5a8cc18159ab06fdbc824b86390e6c50aa5d1232492db096451c35da", "cjpeg_cone", step_cjpeg_cone)
	rtl.RegisterNative("fb3e3f30aa05cf96f7cb29e949c16782c5e468c9c1713fbf3a0004555a6e3fcc", "cjpeg_slice_all", step_cjpeg_slice_all)
	rtl.RegisterNative("8b952a68593d91d14c2895f28d30da38aaa0a8c9b1e82c3b159b04b904283936", "cjpeg_slice_t42", step_cjpeg_slice_t42)
}
