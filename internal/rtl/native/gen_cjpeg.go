// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_cjpeg(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[162]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v14 := vals[14]
	v27 := vals[27]
	v66 := vals[66]
	v76 := vals[76]
	v88 := vals[88]
	v99 := vals[99]
	v111 := vals[111]
	v123 := vals[123]
	v134 := vals[134]
	v146 := vals[146]
	v159 := vals[159]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v10 {
		case 0x0:
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			v20 := v19
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			n0 := v56
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = 0x1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		case 0x1:
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			n0 := v56
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = 0x2
			v14 = 0xc
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		case 0x2:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xffff
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v33 uint64
			if v14 == 0x0 {
				v33 = 1
			}
			v59 := v9
			v60 := (v59 << 0) & 0xffffffffff
			v61 := (v59 >> 0)
			v62 := (v60 | v61)
			v64 := (v62 + 0x1) & 0xffffffffff
			v65 := (v62 * v64) & 0xffffffffff
			v67 := (v66 + v65) & 0xffffffffff
			v69 := (v59 << 1) & 0xffffffffff
			v71 := (v59 >> 39)
			v72 := (v69 | v71)
			v74 := (v72 + 0x3) & 0xffffffffff
			v75 := (v72 * v74) & 0xffffffffff
			v77 := (v76 + v75) & 0xffffffffff
			v79 := (v66 ^ v76)
			v81 := (v59 << 2) & 0xffffffffff
			v83 := (v59 >> 38)
			v84 := (v81 | v83)
			v86 := (v84 + 0x5) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v79 ^ v88)
			v92 := (v59 << 3) & 0xffffffffff
			v94 := (v59 >> 37)
			v95 := (v92 | v94)
			v97 := (v95 + 0x7) & 0xffffffffff
			v98 := (v95 * v97) & 0xffffffffff
			v100 := (v99 + v98) & 0xffffffffff
			v102 := (v91 ^ v99)
			v104 := (v59 << 4) & 0xffffffffff
			v106 := (v59 >> 36)
			v107 := (v104 | v106)
			v109 := (v107 + 0x9) & 0xffffffffff
			v110 := (v107 * v109) & 0xffffffffff
			v112 := (v111 + v110) & 0xffffffffff
			v114 := (v102 ^ v111)
			v116 := (v59 << 5) & 0xffffffffff
			v118 := (v59 >> 35)
			v119 := (v116 | v118)
			v121 := (v119 + 0xb) & 0xffffffffff
			v122 := (v119 * v121) & 0xffffffffff
			v124 := (v123 + v122) & 0xffffffffff
			v126 := (v114 ^ v123)
			v127 := (v59 << 6) & 0xffffffffff
			v129 := (v59 >> 34)
			v130 := (v127 | v129)
			v132 := (v130 + 0xd) & 0xffffffffff
			v133 := (v130 * v132) & 0xffffffffff
			v135 := (v134 + v133) & 0xffffffffff
			v137 := (v126 ^ v134)
			v139 := (v59 << 7) & 0xffffffffff
			v141 := (v59 >> 33)
			v142 := (v139 | v141)
			v144 := (v142 + 0xf) & 0xffffffffff
			v145 := (v142 * v144) & 0xffffffffff
			v147 := (v146 + v145) & 0xffffffffff
			v149 := (v137 ^ v146)
			v150 := (v9 * v9) & 0xffffffff
			v151 := (v9 << 4) & 0xffff
			v152 := (v150 + v151) & 0xffffffff
			v154 := (v5 + 0x1) & 0x3f
			v155 := (v152 * v154) & 0xffffffff
			v157 := v149 & 0xffffffff
			v158 := (v155 ^ v157)
			v160 := (v159 + v158) & 0xffffffff
			v20 := v19
			v32 := v31
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = 0x2
			}
			v49 := v46
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		case 0x3:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			v22 := v5
			v24 := (v22 + 0x3) & 0x7f
			v20 := v19
			v32 := v24
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			n0 := v56
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = 0x4
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		case 0x4:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xffff
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v34 uint64
			if v27 == 0x0 {
				v34 = 1
			}
			v59 := v9
			v60 := (v59 << 0) & 0xffffffffff
			v61 := (v59 >> 0)
			v62 := (v60 | v61)
			v64 := (v62 + 0x1) & 0xffffffffff
			v65 := (v62 * v64) & 0xffffffffff
			v67 := (v66 + v65) & 0xffffffffff
			v69 := (v59 << 1) & 0xffffffffff
			v71 := (v59 >> 39)
			v72 := (v69 | v71)
			v74 := (v72 + 0x3) & 0xffffffffff
			v75 := (v72 * v74) & 0xffffffffff
			v77 := (v76 + v75) & 0xffffffffff
			v79 := (v66 ^ v76)
			v81 := (v59 << 2) & 0xffffffffff
			v83 := (v59 >> 38)
			v84 := (v81 | v83)
			v86 := (v84 + 0x5) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v79 ^ v88)
			v92 := (v59 << 3) & 0xffffffffff
			v94 := (v59 >> 37)
			v95 := (v92 | v94)
			v97 := (v95 + 0x7) & 0xffffffffff
			v98 := (v95 * v97) & 0xffffffffff
			v100 := (v99 + v98) & 0xffffffffff
			v102 := (v91 ^ v99)
			v104 := (v59 << 4) & 0xffffffffff
			v106 := (v59 >> 36)
			v107 := (v104 | v106)
			v109 := (v107 + 0x9) & 0xffffffffff
			v110 := (v107 * v109) & 0xffffffffff
			v112 := (v111 + v110) & 0xffffffffff
			v114 := (v102 ^ v111)
			v116 := (v59 << 5) & 0xffffffffff
			v118 := (v59 >> 35)
			v119 := (v116 | v118)
			v121 := (v119 + 0xb) & 0xffffffffff
			v122 := (v119 * v121) & 0xffffffffff
			v124 := (v123 + v122) & 0xffffffffff
			v126 := (v114 ^ v123)
			v127 := (v59 << 6) & 0xffffffffff
			v129 := (v59 >> 34)
			v130 := (v127 | v129)
			v132 := (v130 + 0xd) & 0xffffffffff
			v133 := (v130 * v132) & 0xffffffffff
			v135 := (v134 + v133) & 0xffffffffff
			v137 := (v126 ^ v134)
			v139 := (v59 << 7) & 0xffffffffff
			v141 := (v59 >> 33)
			v142 := (v139 | v141)
			v144 := (v142 + 0xf) & 0xffffffffff
			v145 := (v142 * v144) & 0xffffffffff
			v147 := (v146 + v145) & 0xffffffffff
			v149 := (v137 ^ v146)
			v150 := (v9 * v9) & 0xffffffff
			v151 := (v9 << 4) & 0xffff
			v152 := (v150 + v151) & 0xffffffff
			v154 := (v5 + 0x1) & 0x3f
			v155 := (v152 * v154) & 0xffffffff
			v157 := v149 & 0xffffffff
			v158 := (v155 ^ v157)
			v160 := (v159 + v158) & 0xffffffff
			v20 := v19
			v32 := v31
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = 0x4
			}
			v44 := v41
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		case 0x5:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v35 uint64
			if v2 <= v0 {
				v35 = 1
			}
			var v37 uint64
			if v35 != 0 {
				v37 = 0x6
			} else {
				v37 = 0x1
			}
			v55 := (v0 + 0x1) & 0x7ff
			v20 := v19
			v32 := v31
			v40 := v37
			v44 := v40
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v55
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v159
			}
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		case 0x6:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xffff
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			v22 := v5
			v24 := (v22 + 0x3) & 0x7f
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v33 uint64
			if v14 == 0x0 {
				v33 = 1
			}
			var v34 uint64
			if v27 == 0x0 {
				v34 = 1
			}
			var v35 uint64
			if v2 <= v0 {
				v35 = 1
			}
			var v37 uint64
			if v35 != 0 {
				v37 = 0x6
			} else {
				v37 = 0x1
			}
			v55 := (v0 + 0x1) & 0x7ff
			v59 := v9
			v60 := (v59 << 0) & 0xffffffffff
			v61 := (v59 >> 0)
			v62 := (v60 | v61)
			v64 := (v62 + 0x1) & 0xffffffffff
			v65 := (v62 * v64) & 0xffffffffff
			v67 := (v66 + v65) & 0xffffffffff
			v69 := (v59 << 1) & 0xffffffffff
			v71 := (v59 >> 39)
			v72 := (v69 | v71)
			v74 := (v72 + 0x3) & 0xffffffffff
			v75 := (v72 * v74) & 0xffffffffff
			v77 := (v76 + v75) & 0xffffffffff
			v79 := (v66 ^ v76)
			v81 := (v59 << 2) & 0xffffffffff
			v83 := (v59 >> 38)
			v84 := (v81 | v83)
			v86 := (v84 + 0x5) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v79 ^ v88)
			v92 := (v59 << 3) & 0xffffffffff
			v94 := (v59 >> 37)
			v95 := (v92 | v94)
			v97 := (v95 + 0x7) & 0xffffffffff
			v98 := (v95 * v97) & 0xffffffffff
			v100 := (v99 + v98) & 0xffffffffff
			v102 := (v91 ^ v99)
			v104 := (v59 << 4) & 0xffffffffff
			v106 := (v59 >> 36)
			v107 := (v104 | v106)
			v109 := (v107 + 0x9) & 0xffffffffff
			v110 := (v107 * v109) & 0xffffffffff
			v112 := (v111 + v110) & 0xffffffffff
			v114 := (v102 ^ v111)
			v116 := (v59 << 5) & 0xffffffffff
			v118 := (v59 >> 35)
			v119 := (v116 | v118)
			v121 := (v119 + 0xb) & 0xffffffffff
			v122 := (v119 * v121) & 0xffffffffff
			v124 := (v123 + v122) & 0xffffffffff
			v126 := (v114 ^ v123)
			v127 := (v59 << 6) & 0xffffffffff
			v129 := (v59 >> 34)
			v130 := (v127 | v129)
			v132 := (v130 + 0xd) & 0xffffffffff
			v133 := (v130 * v132) & 0xffffffffff
			v135 := (v134 + v133) & 0xffffffffff
			v137 := (v126 ^ v134)
			v139 := (v59 << 7) & 0xffffffffff
			v141 := (v59 >> 33)
			v142 := (v139 | v141)
			v144 := (v142 + 0xf) & 0xffffffffff
			v145 := (v142 * v144) & 0xffffffffff
			v147 := (v146 + v145) & 0xffffffffff
			v149 := (v137 ^ v146)
			v150 := (v9 * v9) & 0xffffffff
			v151 := (v9 << 4) & 0xffff
			v152 := (v150 + v151) & 0xffffffff
			v154 := (v5 + 0x1) & 0x3f
			v155 := (v152 * v154) & 0xffffffff
			v157 := v149 & 0xffffffff
			v158 := (v155 ^ v157)
			v160 := (v159 + v158) & 0xffffffff
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v20 uint64
			if v12 != 0 {
				v20 = 0xc
			} else {
				v20 = v19
			}
			var v26 uint64
			if v10 == 0x3 {
				v26 = 1
			}
			var v32 uint64
			if v26 != 0 {
				v32 = v24
			} else {
				v32 = v31
			}
			var v39 uint64
			if v10 == 0x5 {
				v39 = 1
			}
			var v40 uint64
			if v39 != 0 {
				v40 = v37
			} else {
				v40 = v10
			}
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = v10
			}
			var v43 uint64
			if v10 == 0x4 {
				v43 = 1
			}
			var v44 uint64
			if v43 != 0 {
				v44 = v41
			} else {
				v44 = v40
			}
			var v45 uint64
			if v26 != 0 {
				v45 = 0x4
			} else {
				v45 = v44
			}
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = v10
			}
			var v48 uint64
			if v10 == 0x2 {
				v48 = 1
			}
			var v49 uint64
			if v48 != 0 {
				v49 = v46
			} else {
				v49 = v45
			}
			var v50 uint64
			if v12 != 0 {
				v50 = 0x2
			} else {
				v50 = v49
			}
			var v52 uint64
			if v10 == 0x0 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = 0x1
			} else {
				v53 = v50
			}
			var v56 uint64
			if v39 != 0 {
				v56 = v55
			} else {
				v56 = v0
			}
			v57 := (v48 | v43)
			var v68 uint64
			if v57 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v78 uint64
			if v57 != 0 {
				v78 = v77
			} else {
				v78 = v76
			}
			var v90 uint64
			if v57 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v101 uint64
			if v57 != 0 {
				v101 = v100
			} else {
				v101 = v99
			}
			var v113 uint64
			if v57 != 0 {
				v113 = v112
			} else {
				v113 = v111
			}
			var v125 uint64
			if v57 != 0 {
				v125 = v124
			} else {
				v125 = v123
			}
			var v136 uint64
			if v57 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v148 uint64
			if v57 != 0 {
				v148 = v147
			} else {
				v148 = v146
			}
			var v161 uint64
			if v57 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v162 uint64
			if v10 == 0x6 {
				v162 = 1
			}
			if v162 != 0 {
				break loop
			}
			if v39 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v159
				}
			}
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
		}
	}
	vals[0] = v0
	vals[10] = v10
	vals[14] = v14
	vals[27] = v27
	vals[66] = v66
	vals[76] = v76
	vals[88] = v88
	vals[99] = v99
	vals[111] = v111
	vals[123] = v123
	vals[134] = v134
	vals[146] = v146
	vals[159] = v159
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x7ff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x3fffff
	}
	vals[3] = v3
	v5 := v3 & 0x3f
	vals[5] = v5
	v7 := (v3 >> 6)
	vals[7] = v7
	v9 := v7 & 0xffff
	vals[9] = v9
	var v16 uint64
	if v14 != 0x0 {
		v16 = 1
	}
	vals[16] = v16
	v18 := (v14 - 0x1) & 0xf
	vals[18] = v18
	var v19 uint64
	if v16 != 0 {
		v19 = v18
	} else {
		v19 = v14
	}
	vals[19] = v19
	v22 := v5
	vals[22] = v22
	v24 := (v22 + 0x3) & 0x7f
	vals[24] = v24
	var v28 uint64
	if v27 != 0x0 {
		v28 = 1
	}
	vals[28] = v28
	v30 := (v27 - 0x1) & 0x7f
	vals[30] = v30
	var v31 uint64
	if v28 != 0 {
		v31 = v30
	} else {
		v31 = v27
	}
	vals[31] = v31
	var v33 uint64
	if v14 == 0x0 {
		v33 = 1
	}
	vals[33] = v33
	var v34 uint64
	if v27 == 0x0 {
		v34 = 1
	}
	vals[34] = v34
	var v35 uint64
	if v2 <= v0 {
		v35 = 1
	}
	vals[35] = v35
	var v37 uint64
	if v35 != 0 {
		v37 = 0x6
	} else {
		v37 = 0x1
	}
	vals[37] = v37
	v55 := (v0 + 0x1) & 0x7ff
	vals[55] = v55
	v59 := v9
	vals[59] = v59
	v60 := (v59 << 0) & 0xffffffffff
	vals[60] = v60
	v61 := (v59 >> 0)
	vals[61] = v61
	v62 := (v60 | v61)
	vals[62] = v62
	v64 := (v62 + 0x1) & 0xffffffffff
	vals[64] = v64
	v65 := (v62 * v64) & 0xffffffffff
	vals[65] = v65
	v67 := (v66 + v65) & 0xffffffffff
	vals[67] = v67
	v69 := (v59 << 1) & 0xffffffffff
	vals[69] = v69
	v71 := (v59 >> 39)
	vals[71] = v71
	v72 := (v69 | v71)
	vals[72] = v72
	v74 := (v72 + 0x3) & 0xffffffffff
	vals[74] = v74
	v75 := (v72 * v74) & 0xffffffffff
	vals[75] = v75
	v77 := (v76 + v75) & 0xffffffffff
	vals[77] = v77
	v79 := (v66 ^ v76)
	vals[79] = v79
	v81 := (v59 << 2) & 0xffffffffff
	vals[81] = v81
	v83 := (v59 >> 38)
	vals[83] = v83
	v84 := (v81 | v83)
	vals[84] = v84
	v86 := (v84 + 0x5) & 0xffffffffff
	vals[86] = v86
	v87 := (v84 * v86) & 0xffffffffff
	vals[87] = v87
	v89 := (v88 + v87) & 0xffffffffff
	vals[89] = v89
	v91 := (v79 ^ v88)
	vals[91] = v91
	v92 := (v59 << 3) & 0xffffffffff
	vals[92] = v92
	v94 := (v59 >> 37)
	vals[94] = v94
	v95 := (v92 | v94)
	vals[95] = v95
	v97 := (v95 + 0x7) & 0xffffffffff
	vals[97] = v97
	v98 := (v95 * v97) & 0xffffffffff
	vals[98] = v98
	v100 := (v99 + v98) & 0xffffffffff
	vals[100] = v100
	v102 := (v91 ^ v99)
	vals[102] = v102
	v104 := (v59 << 4) & 0xffffffffff
	vals[104] = v104
	v106 := (v59 >> 36)
	vals[106] = v106
	v107 := (v104 | v106)
	vals[107] = v107
	v109 := (v107 + 0x9) & 0xffffffffff
	vals[109] = v109
	v110 := (v107 * v109) & 0xffffffffff
	vals[110] = v110
	v112 := (v111 + v110) & 0xffffffffff
	vals[112] = v112
	v114 := (v102 ^ v111)
	vals[114] = v114
	v116 := (v59 << 5) & 0xffffffffff
	vals[116] = v116
	v118 := (v59 >> 35)
	vals[118] = v118
	v119 := (v116 | v118)
	vals[119] = v119
	v121 := (v119 + 0xb) & 0xffffffffff
	vals[121] = v121
	v122 := (v119 * v121) & 0xffffffffff
	vals[122] = v122
	v124 := (v123 + v122) & 0xffffffffff
	vals[124] = v124
	v126 := (v114 ^ v123)
	vals[126] = v126
	v127 := (v59 << 6) & 0xffffffffff
	vals[127] = v127
	v129 := (v59 >> 34)
	vals[129] = v129
	v130 := (v127 | v129)
	vals[130] = v130
	v132 := (v130 + 0xd) & 0xffffffffff
	vals[132] = v132
	v133 := (v130 * v132) & 0xffffffffff
	vals[133] = v133
	v135 := (v134 + v133) & 0xffffffffff
	vals[135] = v135
	v137 := (v126 ^ v134)
	vals[137] = v137
	v139 := (v59 << 7) & 0xffffffffff
	vals[139] = v139
	v141 := (v59 >> 33)
	vals[141] = v141
	v142 := (v139 | v141)
	vals[142] = v142
	v144 := (v142 + 0xf) & 0xffffffffff
	vals[144] = v144
	v145 := (v142 * v144) & 0xffffffffff
	vals[145] = v145
	v147 := (v146 + v145) & 0xffffffffff
	vals[147] = v147
	v149 := (v137 ^ v146)
	vals[149] = v149
	v150 := (v9 * v9) & 0xffffffff
	vals[150] = v150
	v151 := (v9 << 4) & 0xffff
	vals[151] = v151
	v152 := (v150 + v151) & 0xffffffff
	vals[152] = v152
	v154 := (v5 + 0x1) & 0x3f
	vals[154] = v154
	v155 := (v152 * v154) & 0xffffffff
	vals[155] = v155
	v157 := v149 & 0xffffffff
	vals[157] = v157
	v158 := (v155 ^ v157)
	vals[158] = v158
	v160 := (v159 + v158) & 0xffffffff
	vals[160] = v160
	switch v10 {
	case 0x0:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x0
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x0
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x0
		vals[45] = 0x0
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x0
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		vals[50] = 0x0
		vals[52] = 0x1
		vals[53] = 0x1
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
	case 0x1:
		vals[12] = 0x1
		vals[20] = 0xc
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x1
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x1
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x1
		vals[45] = 0x1
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x1
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x1
		vals[50] = 0x2
		vals[52] = 0x0
		vals[53] = 0x2
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
	case 0x2:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x2
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x2
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x2
		vals[45] = 0x2
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x2
		}
		vals[46] = v46
		vals[48] = 0x1
		v49 := v46
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		vals[52] = 0x0
		v53 := v50
		vals[53] = v53
		v56 := v0
		vals[56] = v56
		vals[57] = 0x1
		v68 := v67
		vals[68] = v68
		v78 := v77
		vals[78] = v78
		v90 := v89
		vals[90] = v90
		v101 := v100
		vals[101] = v101
		v113 := v112
		vals[113] = v113
		v125 := v124
		vals[125] = v125
		v136 := v135
		vals[136] = v136
		v148 := v147
		vals[148] = v148
		v161 := v160
		vals[161] = v161
		vals[162] = 0x0
	case 0x3:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x1
		v32 := v24
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x3
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x3
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x3
		vals[45] = 0x4
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x3
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x4
		vals[50] = 0x4
		vals[52] = 0x0
		vals[53] = 0x4
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
	case 0x4:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x4
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x4
		}
		vals[41] = v41
		vals[43] = 0x1
		v44 := v41
		vals[44] = v44
		v45 := v44
		vals[45] = v45
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x4
		}
		vals[46] = v46
		vals[48] = 0x0
		v49 := v45
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		vals[52] = 0x0
		v53 := v50
		vals[53] = v53
		v56 := v0
		vals[56] = v56
		vals[57] = 0x1
		v68 := v67
		vals[68] = v68
		v78 := v77
		vals[78] = v78
		v90 := v89
		vals[90] = v90
		v101 := v100
		vals[101] = v101
		v113 := v112
		vals[113] = v113
		v125 := v124
		vals[125] = v125
		v136 := v135
		vals[136] = v136
		v148 := v147
		vals[148] = v148
		v161 := v160
		vals[161] = v161
		vals[162] = 0x0
	case 0x5:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x1
		v40 := v37
		vals[40] = v40
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x5
		}
		vals[41] = v41
		vals[43] = 0x0
		v44 := v40
		vals[44] = v44
		v45 := v44
		vals[45] = v45
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x5
		}
		vals[46] = v46
		vals[48] = 0x0
		v49 := v45
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		vals[52] = 0x0
		v53 := v50
		vals[53] = v53
		v56 := v55
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
	case 0x6:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x6
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x6
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x6
		vals[45] = 0x6
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x6
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x6
		vals[50] = 0x6
		vals[52] = 0x0
		vals[53] = 0x6
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x1
	default:
		var v12 uint64
		if v10 == 0x1 {
			v12 = 1
		}
		vals[12] = v12
		var v20 uint64
		if v12 != 0 {
			v20 = 0xc
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v26 uint64
		if v10 == 0x3 {
			v26 = 1
		}
		vals[26] = v26
		var v32 uint64
		if v26 != 0 {
			v32 = v24
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v39 uint64
		if v10 == 0x5 {
			v39 = 1
		}
		vals[39] = v39
		var v40 uint64
		if v39 != 0 {
			v40 = v37
		} else {
			v40 = v10
		}
		vals[40] = v40
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = v10
		}
		vals[41] = v41
		var v43 uint64
		if v10 == 0x4 {
			v43 = 1
		}
		vals[43] = v43
		var v44 uint64
		if v43 != 0 {
			v44 = v41
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v45 uint64
		if v26 != 0 {
			v45 = 0x4
		} else {
			v45 = v44
		}
		vals[45] = v45
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = v10
		}
		vals[46] = v46
		var v48 uint64
		if v10 == 0x2 {
			v48 = 1
		}
		vals[48] = v48
		var v49 uint64
		if v48 != 0 {
			v49 = v46
		} else {
			v49 = v45
		}
		vals[49] = v49
		var v50 uint64
		if v12 != 0 {
			v50 = 0x2
		} else {
			v50 = v49
		}
		vals[50] = v50
		var v52 uint64
		if v10 == 0x0 {
			v52 = 1
		}
		vals[52] = v52
		var v53 uint64
		if v52 != 0 {
			v53 = 0x1
		} else {
			v53 = v50
		}
		vals[53] = v53
		var v56 uint64
		if v39 != 0 {
			v56 = v55
		} else {
			v56 = v0
		}
		vals[56] = v56
		v57 := (v48 | v43)
		vals[57] = v57
		var v68 uint64
		if v57 != 0 {
			v68 = v67
		} else {
			v68 = v66
		}
		vals[68] = v68
		var v78 uint64
		if v57 != 0 {
			v78 = v77
		} else {
			v78 = v76
		}
		vals[78] = v78
		var v90 uint64
		if v57 != 0 {
			v90 = v89
		} else {
			v90 = v88
		}
		vals[90] = v90
		var v101 uint64
		if v57 != 0 {
			v101 = v100
		} else {
			v101 = v99
		}
		vals[101] = v101
		var v113 uint64
		if v57 != 0 {
			v113 = v112
		} else {
			v113 = v111
		}
		vals[113] = v113
		var v125 uint64
		if v57 != 0 {
			v125 = v124
		} else {
			v125 = v123
		}
		vals[125] = v125
		var v136 uint64
		if v57 != 0 {
			v136 = v135
		} else {
			v136 = v134
		}
		vals[136] = v136
		var v148 uint64
		if v57 != 0 {
			v148 = v147
		} else {
			v148 = v146
		}
		vals[148] = v148
		var v161 uint64
		if v57 != 0 {
			v161 = v160
		} else {
			v161 = v159
		}
		vals[161] = v161
		var v162 uint64
		if v10 == 0x6 {
			v162 = 1
		}
		vals[162] = v162
	}
	done := vals[162] != 0
	if vals[39] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[159]
		}
	}
	l0 := vals[56] & 0x7ff
	l1 := vals[53] & 0x7
	l2 := vals[20] & 0xf
	l3 := vals[32] & 0x7f
	l4 := vals[68] & 0xffffffffff
	l5 := vals[78] & 0xffffffffff
	l6 := vals[90] & 0xffffffffff
	l7 := vals[101] & 0xffffffffff
	l8 := vals[113] & 0xffffffffff
	l9 := vals[125] & 0xffffffffff
	l10 := vals[136] & 0xffffffffff
	l11 := vals[148] & 0xffffffffff
	l12 := vals[161] & 0xffffffff
	vals[0] = l0
	vals[10] = l1
	vals[14] = l2
	vals[27] = l3
	vals[66] = l4
	vals[76] = l5
	vals[88] = l6
	vals[99] = l7
	vals[111] = l8
	vals[123] = l9
	vals[134] = l10
	vals[146] = l11
	vals[159] = l12
	return cycles + 1, done
}

func step_cjpeg_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[215]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v14 := vals[14]
	v27 := vals[27]
	v66 := vals[66]
	v76 := vals[76]
	v88 := vals[88]
	v99 := vals[99]
	v111 := vals[111]
	v123 := vals[123]
	v134 := vals[134]
	v146 := vals[146]
	v159 := vals[159]
	v166 := vals[166]
	v171 := vals[171]
	v176 := vals[176]
	v181 := vals[181]
	v186 := vals[186]
	v191 := vals[191]
	v195 := vals[195]
	v198 := vals[198]
	v201 := vals[201]
	v204 := vals[204]
	v207 := vals[207]
	v210 := vals[210]
	v213 := vals[213]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v10 {
		case 0x0:
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			v167 := (v166 + 0x1) & 0xffffff
			v20 := v19
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v167
			v173 := v171
			v178 := v176
			v183 := v181
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			n0 := v56
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = 0x1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		case 0x1:
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			v172 := (v171 + 0x1) & 0xffffff
			v199 := (v198 + 0x1) & 0xffffff
			v202 := (v201 + 0xc) & 0xffffff
			v205 := (v204 + v14) & 0xffffff
			v32 := v31
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v166
			v173 := v172
			v178 := v176
			v183 := v181
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v199
			v203 := v202
			v206 := v205
			v209 := v207
			v212 := v210
			v215 := v213
			n0 := v56
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = 0x2
			v14 = 0xc
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		case 0x2:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xffff
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v33 uint64
			if v14 == 0x0 {
				v33 = 1
			}
			v59 := v9
			v60 := (v59 << 0) & 0xffffffffff
			v61 := (v59 >> 0)
			v62 := (v60 | v61)
			v64 := (v62 + 0x1) & 0xffffffffff
			v65 := (v62 * v64) & 0xffffffffff
			v67 := (v66 + v65) & 0xffffffffff
			v69 := (v59 << 1) & 0xffffffffff
			v71 := (v59 >> 39)
			v72 := (v69 | v71)
			v74 := (v72 + 0x3) & 0xffffffffff
			v75 := (v72 * v74) & 0xffffffffff
			v77 := (v76 + v75) & 0xffffffffff
			v79 := (v66 ^ v76)
			v81 := (v59 << 2) & 0xffffffffff
			v83 := (v59 >> 38)
			v84 := (v81 | v83)
			v86 := (v84 + 0x5) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v79 ^ v88)
			v92 := (v59 << 3) & 0xffffffffff
			v94 := (v59 >> 37)
			v95 := (v92 | v94)
			v97 := (v95 + 0x7) & 0xffffffffff
			v98 := (v95 * v97) & 0xffffffffff
			v100 := (v99 + v98) & 0xffffffffff
			v102 := (v91 ^ v99)
			v104 := (v59 << 4) & 0xffffffffff
			v106 := (v59 >> 36)
			v107 := (v104 | v106)
			v109 := (v107 + 0x9) & 0xffffffffff
			v110 := (v107 * v109) & 0xffffffffff
			v112 := (v111 + v110) & 0xffffffffff
			v114 := (v102 ^ v111)
			v116 := (v59 << 5) & 0xffffffffff
			v118 := (v59 >> 35)
			v119 := (v116 | v118)
			v121 := (v119 + 0xb) & 0xffffffffff
			v122 := (v119 * v121) & 0xffffffffff
			v124 := (v123 + v122) & 0xffffffffff
			v126 := (v114 ^ v123)
			v127 := (v59 << 6) & 0xffffffffff
			v129 := (v59 >> 34)
			v130 := (v127 | v129)
			v132 := (v130 + 0xd) & 0xffffffffff
			v133 := (v130 * v132) & 0xffffffffff
			v135 := (v134 + v133) & 0xffffffffff
			v137 := (v126 ^ v134)
			v139 := (v59 << 7) & 0xffffffffff
			v141 := (v59 >> 33)
			v142 := (v139 | v141)
			v144 := (v142 + 0xf) & 0xffffffffff
			v145 := (v142 * v144) & 0xffffffffff
			v147 := (v146 + v145) & 0xffffffffff
			v149 := (v137 ^ v146)
			v150 := (v9 * v9) & 0xffffffff
			v151 := (v9 << 4) & 0xffff
			v152 := (v150 + v151) & 0xffffffff
			v154 := (v5 + 0x1) & 0x3f
			v155 := (v152 * v154) & 0xffffffff
			v157 := v149 & 0xffffffff
			v158 := (v155 ^ v157)
			v160 := (v159 + v158) & 0xffffffff
			v177 := (v176 + 0x1) & 0xffffff
			v20 := v19
			v32 := v31
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = 0x2
			}
			v49 := v46
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			v168 := v166
			v173 := v171
			var v174 uint64
			if v53 == 0x3 {
				v174 = 1
			}
			v175 := v174
			var v178 uint64
			if v175 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			v183 := v181
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		case 0x3:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			v22 := v5
			v24 := (v22 + 0x3) & 0x7f
			v182 := (v181 + 0x1) & 0xffffff
			v208 := (v207 + 0x1) & 0xffffff
			v211 := (v210 + v24) & 0xffffff
			v214 := (v213 + v27) & 0xffffff
			v20 := v19
			v32 := v24
			v56 := v0
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			v168 := v166
			v173 := v171
			v178 := v176
			v183 := v182
			v188 := v186
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v208
			v212 := v211
			v215 := v214
			n0 := v56
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = 0x4
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		case 0x4:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xffff
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v34 uint64
			if v27 == 0x0 {
				v34 = 1
			}
			v59 := v9
			v60 := (v59 << 0) & 0xffffffffff
			v61 := (v59 >> 0)
			v62 := (v60 | v61)
			v64 := (v62 + 0x1) & 0xffffffffff
			v65 := (v62 * v64) & 0xffffffffff
			v67 := (v66 + v65) & 0xffffffffff
			v69 := (v59 << 1) & 0xffffffffff
			v71 := (v59 >> 39)
			v72 := (v69 | v71)
			v74 := (v72 + 0x3) & 0xffffffffff
			v75 := (v72 * v74) & 0xffffffffff
			v77 := (v76 + v75) & 0xffffffffff
			v79 := (v66 ^ v76)
			v81 := (v59 << 2) & 0xffffffffff
			v83 := (v59 >> 38)
			v84 := (v81 | v83)
			v86 := (v84 + 0x5) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v79 ^ v88)
			v92 := (v59 << 3) & 0xffffffffff
			v94 := (v59 >> 37)
			v95 := (v92 | v94)
			v97 := (v95 + 0x7) & 0xffffffffff
			v98 := (v95 * v97) & 0xffffffffff
			v100 := (v99 + v98) & 0xffffffffff
			v102 := (v91 ^ v99)
			v104 := (v59 << 4) & 0xffffffffff
			v106 := (v59 >> 36)
			v107 := (v104 | v106)
			v109 := (v107 + 0x9) & 0xffffffffff
			v110 := (v107 * v109) & 0xffffffffff
			v112 := (v111 + v110) & 0xffffffffff
			v114 := (v102 ^ v111)
			v116 := (v59 << 5) & 0xffffffffff
			v118 := (v59 >> 35)
			v119 := (v116 | v118)
			v121 := (v119 + 0xb) & 0xffffffffff
			v122 := (v119 * v121) & 0xffffffffff
			v124 := (v123 + v122) & 0xffffffffff
			v126 := (v114 ^ v123)
			v127 := (v59 << 6) & 0xffffffffff
			v129 := (v59 >> 34)
			v130 := (v127 | v129)
			v132 := (v130 + 0xd) & 0xffffffffff
			v133 := (v130 * v132) & 0xffffffffff
			v135 := (v134 + v133) & 0xffffffffff
			v137 := (v126 ^ v134)
			v139 := (v59 << 7) & 0xffffffffff
			v141 := (v59 >> 33)
			v142 := (v139 | v141)
			v144 := (v142 + 0xf) & 0xffffffffff
			v145 := (v142 * v144) & 0xffffffffff
			v147 := (v146 + v145) & 0xffffffffff
			v149 := (v137 ^ v146)
			v150 := (v9 * v9) & 0xffffffff
			v151 := (v9 << 4) & 0xffff
			v152 := (v150 + v151) & 0xffffffff
			v154 := (v5 + 0x1) & 0x3f
			v155 := (v152 * v154) & 0xffffffff
			v157 := v149 & 0xffffffff
			v158 := (v155 ^ v157)
			v160 := (v159 + v158) & 0xffffffff
			v187 := (v186 + 0x1) & 0xffffff
			v20 := v19
			v32 := v31
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = 0x4
			}
			v44 := v41
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v0
			v68 := v67
			v78 := v77
			v90 := v89
			v101 := v100
			v113 := v112
			v125 := v124
			v136 := v135
			v148 := v147
			v161 := v160
			v168 := v166
			v173 := v171
			v178 := v176
			v183 := v181
			var v184 uint64
			if v53 == 0x5 {
				v184 = 1
			}
			v185 := v184
			var v188 uint64
			if v185 != 0 {
				v188 = v187
			} else {
				v188 = v186
			}
			v193 := v191
			v197 := v195
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		case 0x5:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v35 uint64
			if v2 <= v0 {
				v35 = 1
			}
			var v37 uint64
			if v35 != 0 {
				v37 = 0x6
			} else {
				v37 = 0x1
			}
			v55 := (v0 + 0x1) & 0x7ff
			v192 := (v191 + 0x1) & 0xffffff
			v196 := (v195 + 0x1) & 0xffffff
			v20 := v19
			v32 := v31
			v40 := v37
			v44 := v40
			v45 := v44
			v49 := v45
			v50 := v49
			v53 := v50
			v56 := v55
			v68 := v66
			v78 := v76
			v90 := v88
			v101 := v99
			v113 := v111
			v125 := v123
			v136 := v134
			v148 := v146
			v161 := v159
			var v163 uint64
			if v53 == 0x1 {
				v163 = 1
			}
			v168 := v166
			v173 := v171
			v178 := v176
			v183 := v181
			v188 := v186
			var v189 uint64
			if v53 == 0x6 {
				v189 = 1
			}
			v190 := v189
			var v193 uint64
			if v190 != 0 {
				v193 = v192
			} else {
				v193 = v191
			}
			v194 := v163
			var v197 uint64
			if v194 != 0 {
				v197 = v196
			} else {
				v197 = v195
			}
			v200 := v198
			v203 := v201
			v206 := v204
			v209 := v207
			v212 := v210
			v215 := v213
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v159
			}
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		case 0x6:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3fffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xffff
			var v16 uint64
			if v14 != 0x0 {
				v16 = 1
			}
			v18 := (v14 - 0x1) & 0xf
			var v19 uint64
			if v16 != 0 {
				v19 = v18
			} else {
				v19 = v14
			}
			v22 := v5
			v24 := (v22 + 0x3) & 0x7f
			var v28 uint64
			if v27 != 0x0 {
				v28 = 1
			}
			v30 := (v27 - 0x1) & 0x7f
			var v31 uint64
			if v28 != 0 {
				v31 = v30
			} else {
				v31 = v27
			}
			var v33 uint64
			if v14 == 0x0 {
				v33 = 1
			}
			var v34 uint64
			if v27 == 0x0 {
				v34 = 1
			}
			var v35 uint64
			if v2 <= v0 {
				v35 = 1
			}
			var v37 uint64
			if v35 != 0 {
				v37 = 0x6
			} else {
				v37 = 0x1
			}
			v55 := (v0 + 0x1) & 0x7ff
			v59 := v9
			v60 := (v59 << 0) & 0xffffffffff
			v61 := (v59 >> 0)
			v62 := (v60 | v61)
			v64 := (v62 + 0x1) & 0xffffffffff
			v65 := (v62 * v64) & 0xffffffffff
			v67 := (v66 + v65) & 0xffffffffff
			v69 := (v59 << 1) & 0xffffffffff
			v71 := (v59 >> 39)
			v72 := (v69 | v71)
			v74 := (v72 + 0x3) & 0xffffffffff
			v75 := (v72 * v74) & 0xffffffffff
			v77 := (v76 + v75) & 0xffffffffff
			v79 := (v66 ^ v76)
			v81 := (v59 << 2) & 0xffffffffff
			v83 := (v59 >> 38)
			v84 := (v81 | v83)
			v86 := (v84 + 0x5) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v79 ^ v88)
			v92 := (v59 << 3) & 0xffffffffff
			v94 := (v59 >> 37)
			v95 := (v92 | v94)
			v97 := (v95 + 0x7) & 0xffffffffff
			v98 := (v95 * v97) & 0xffffffffff
			v100 := (v99 + v98) & 0xffffffffff
			v102 := (v91 ^ v99)
			v104 := (v59 << 4) & 0xffffffffff
			v106 := (v59 >> 36)
			v107 := (v104 | v106)
			v109 := (v107 + 0x9) & 0xffffffffff
			v110 := (v107 * v109) & 0xffffffffff
			v112 := (v111 + v110) & 0xffffffffff
			v114 := (v102 ^ v111)
			v116 := (v59 << 5) & 0xffffffffff
			v118 := (v59 >> 35)
			v119 := (v116 | v118)
			v121 := (v119 + 0xb) & 0xffffffffff
			v122 := (v119 * v121) & 0xffffffffff
			v124 := (v123 + v122) & 0xffffffffff
			v126 := (v114 ^ v123)
			v127 := (v59 << 6) & 0xffffffffff
			v129 := (v59 >> 34)
			v130 := (v127 | v129)
			v132 := (v130 + 0xd) & 0xffffffffff
			v133 := (v130 * v132) & 0xffffffffff
			v135 := (v134 + v133) & 0xffffffffff
			v137 := (v126 ^ v134)
			v139 := (v59 << 7) & 0xffffffffff
			v141 := (v59 >> 33)
			v142 := (v139 | v141)
			v144 := (v142 + 0xf) & 0xffffffffff
			v145 := (v142 * v144) & 0xffffffffff
			v147 := (v146 + v145) & 0xffffffffff
			v149 := (v137 ^ v146)
			v150 := (v9 * v9) & 0xffffffff
			v151 := (v9 << 4) & 0xffff
			v152 := (v150 + v151) & 0xffffffff
			v154 := (v5 + 0x1) & 0x3f
			v155 := (v152 * v154) & 0xffffffff
			v157 := v149 & 0xffffffff
			v158 := (v155 ^ v157)
			v160 := (v159 + v158) & 0xffffffff
			v167 := (v166 + 0x1) & 0xffffff
			v172 := (v171 + 0x1) & 0xffffff
			v177 := (v176 + 0x1) & 0xffffff
			v182 := (v181 + 0x1) & 0xffffff
			v187 := (v186 + 0x1) & 0xffffff
			v192 := (v191 + 0x1) & 0xffffff
			v196 := (v195 + 0x1) & 0xffffff
			v199 := (v198 + 0x1) & 0xffffff
			v202 := (v201 + 0xc) & 0xffffff
			v205 := (v204 + v14) & 0xffffff
			v208 := (v207 + 0x1) & 0xffffff
			v211 := (v210 + v24) & 0xffffff
			v214 := (v213 + v27) & 0xffffff
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v20 uint64
			if v12 != 0 {
				v20 = 0xc
			} else {
				v20 = v19
			}
			var v26 uint64
			if v10 == 0x3 {
				v26 = 1
			}
			var v32 uint64
			if v26 != 0 {
				v32 = v24
			} else {
				v32 = v31
			}
			var v39 uint64
			if v10 == 0x5 {
				v39 = 1
			}
			var v40 uint64
			if v39 != 0 {
				v40 = v37
			} else {
				v40 = v10
			}
			var v41 uint64
			if v34 != 0 {
				v41 = 0x5
			} else {
				v41 = v10
			}
			var v43 uint64
			if v10 == 0x4 {
				v43 = 1
			}
			var v44 uint64
			if v43 != 0 {
				v44 = v41
			} else {
				v44 = v40
			}
			var v45 uint64
			if v26 != 0 {
				v45 = 0x4
			} else {
				v45 = v44
			}
			var v46 uint64
			if v33 != 0 {
				v46 = 0x3
			} else {
				v46 = v10
			}
			var v48 uint64
			if v10 == 0x2 {
				v48 = 1
			}
			var v49 uint64
			if v48 != 0 {
				v49 = v46
			} else {
				v49 = v45
			}
			var v50 uint64
			if v12 != 0 {
				v50 = 0x2
			} else {
				v50 = v49
			}
			var v52 uint64
			if v10 == 0x0 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = 0x1
			} else {
				v53 = v50
			}
			var v56 uint64
			if v39 != 0 {
				v56 = v55
			} else {
				v56 = v0
			}
			v57 := (v48 | v43)
			var v68 uint64
			if v57 != 0 {
				v68 = v67
			} else {
				v68 = v66
			}
			var v78 uint64
			if v57 != 0 {
				v78 = v77
			} else {
				v78 = v76
			}
			var v90 uint64
			if v57 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v101 uint64
			if v57 != 0 {
				v101 = v100
			} else {
				v101 = v99
			}
			var v113 uint64
			if v57 != 0 {
				v113 = v112
			} else {
				v113 = v111
			}
			var v125 uint64
			if v57 != 0 {
				v125 = v124
			} else {
				v125 = v123
			}
			var v136 uint64
			if v57 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v148 uint64
			if v57 != 0 {
				v148 = v147
			} else {
				v148 = v146
			}
			var v161 uint64
			if v57 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v162 uint64
			if v10 == 0x6 {
				v162 = 1
			}
			var v163 uint64
			if v53 == 0x1 {
				v163 = 1
			}
			v164 := v52 & v163
			var v168 uint64
			if v164 != 0 {
				v168 = v167
			} else {
				v168 = v166
			}
			var v169 uint64
			if v53 == 0x2 {
				v169 = 1
			}
			v170 := v12 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v174 uint64
			if v53 == 0x3 {
				v174 = 1
			}
			v175 := v48 & v174
			var v178 uint64
			if v175 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v179 uint64
			if v53 == 0x4 {
				v179 = 1
			}
			v180 := v26 & v179
			var v183 uint64
			if v180 != 0 {
				v183 = v182
			} else {
				v183 = v181
			}
			var v184 uint64
			if v53 == 0x5 {
				v184 = 1
			}
			v185 := v43 & v184
			var v188 uint64
			if v185 != 0 {
				v188 = v187
			} else {
				v188 = v186
			}
			var v189 uint64
			if v53 == 0x6 {
				v189 = 1
			}
			v190 := v39 & v189
			var v193 uint64
			if v190 != 0 {
				v193 = v192
			} else {
				v193 = v191
			}
			v194 := v39 & v163
			var v197 uint64
			if v194 != 0 {
				v197 = v196
			} else {
				v197 = v195
			}
			var v200 uint64
			if v12 != 0 {
				v200 = v199
			} else {
				v200 = v198
			}
			var v203 uint64
			if v12 != 0 {
				v203 = v202
			} else {
				v203 = v201
			}
			var v206 uint64
			if v12 != 0 {
				v206 = v205
			} else {
				v206 = v204
			}
			var v209 uint64
			if v26 != 0 {
				v209 = v208
			} else {
				v209 = v207
			}
			var v212 uint64
			if v26 != 0 {
				v212 = v211
			} else {
				v212 = v210
			}
			var v215 uint64
			if v26 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			if v162 != 0 {
				break loop
			}
			if v39 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v159
				}
			}
			n0 := v56
			n1 := v53
			n2 := v20
			n3 := v32
			n4 := v68
			n5 := v78
			n6 := v90
			n7 := v101
			n8 := v113
			n9 := v125
			n10 := v136
			n11 := v148
			n12 := v161
			n13 := v168
			n14 := v173
			n15 := v178
			n16 := v183
			n17 := v188
			n18 := v193
			n19 := v197
			n20 := v200
			n21 := v203
			n22 := v206
			n23 := v209
			n24 := v212
			n25 := v215
			v0 = n0
			v10 = n1
			v14 = n2
			v27 = n3
			v66 = n4
			v76 = n5
			v88 = n6
			v99 = n7
			v111 = n8
			v123 = n9
			v134 = n10
			v146 = n11
			v159 = n12
			v166 = n13
			v171 = n14
			v176 = n15
			v181 = n16
			v186 = n17
			v191 = n18
			v195 = n19
			v198 = n20
			v201 = n21
			v204 = n22
			v207 = n23
			v210 = n24
			v213 = n25
		}
	}
	vals[0] = v0
	vals[10] = v10
	vals[14] = v14
	vals[27] = v27
	vals[66] = v66
	vals[76] = v76
	vals[88] = v88
	vals[99] = v99
	vals[111] = v111
	vals[123] = v123
	vals[134] = v134
	vals[146] = v146
	vals[159] = v159
	vals[166] = v166
	vals[171] = v171
	vals[176] = v176
	vals[181] = v181
	vals[186] = v186
	vals[191] = v191
	vals[195] = v195
	vals[198] = v198
	vals[201] = v201
	vals[204] = v204
	vals[207] = v207
	vals[210] = v210
	vals[213] = v213
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x7ff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x3fffff
	}
	vals[3] = v3
	v5 := v3 & 0x3f
	vals[5] = v5
	v7 := (v3 >> 6)
	vals[7] = v7
	v9 := v7 & 0xffff
	vals[9] = v9
	var v16 uint64
	if v14 != 0x0 {
		v16 = 1
	}
	vals[16] = v16
	v18 := (v14 - 0x1) & 0xf
	vals[18] = v18
	var v19 uint64
	if v16 != 0 {
		v19 = v18
	} else {
		v19 = v14
	}
	vals[19] = v19
	v22 := v5
	vals[22] = v22
	v24 := (v22 + 0x3) & 0x7f
	vals[24] = v24
	var v28 uint64
	if v27 != 0x0 {
		v28 = 1
	}
	vals[28] = v28
	v30 := (v27 - 0x1) & 0x7f
	vals[30] = v30
	var v31 uint64
	if v28 != 0 {
		v31 = v30
	} else {
		v31 = v27
	}
	vals[31] = v31
	var v33 uint64
	if v14 == 0x0 {
		v33 = 1
	}
	vals[33] = v33
	var v34 uint64
	if v27 == 0x0 {
		v34 = 1
	}
	vals[34] = v34
	var v35 uint64
	if v2 <= v0 {
		v35 = 1
	}
	vals[35] = v35
	var v37 uint64
	if v35 != 0 {
		v37 = 0x6
	} else {
		v37 = 0x1
	}
	vals[37] = v37
	v55 := (v0 + 0x1) & 0x7ff
	vals[55] = v55
	v59 := v9
	vals[59] = v59
	v60 := (v59 << 0) & 0xffffffffff
	vals[60] = v60
	v61 := (v59 >> 0)
	vals[61] = v61
	v62 := (v60 | v61)
	vals[62] = v62
	v64 := (v62 + 0x1) & 0xffffffffff
	vals[64] = v64
	v65 := (v62 * v64) & 0xffffffffff
	vals[65] = v65
	v67 := (v66 + v65) & 0xffffffffff
	vals[67] = v67
	v69 := (v59 << 1) & 0xffffffffff
	vals[69] = v69
	v71 := (v59 >> 39)
	vals[71] = v71
	v72 := (v69 | v71)
	vals[72] = v72
	v74 := (v72 + 0x3) & 0xffffffffff
	vals[74] = v74
	v75 := (v72 * v74) & 0xffffffffff
	vals[75] = v75
	v77 := (v76 + v75) & 0xffffffffff
	vals[77] = v77
	v79 := (v66 ^ v76)
	vals[79] = v79
	v81 := (v59 << 2) & 0xffffffffff
	vals[81] = v81
	v83 := (v59 >> 38)
	vals[83] = v83
	v84 := (v81 | v83)
	vals[84] = v84
	v86 := (v84 + 0x5) & 0xffffffffff
	vals[86] = v86
	v87 := (v84 * v86) & 0xffffffffff
	vals[87] = v87
	v89 := (v88 + v87) & 0xffffffffff
	vals[89] = v89
	v91 := (v79 ^ v88)
	vals[91] = v91
	v92 := (v59 << 3) & 0xffffffffff
	vals[92] = v92
	v94 := (v59 >> 37)
	vals[94] = v94
	v95 := (v92 | v94)
	vals[95] = v95
	v97 := (v95 + 0x7) & 0xffffffffff
	vals[97] = v97
	v98 := (v95 * v97) & 0xffffffffff
	vals[98] = v98
	v100 := (v99 + v98) & 0xffffffffff
	vals[100] = v100
	v102 := (v91 ^ v99)
	vals[102] = v102
	v104 := (v59 << 4) & 0xffffffffff
	vals[104] = v104
	v106 := (v59 >> 36)
	vals[106] = v106
	v107 := (v104 | v106)
	vals[107] = v107
	v109 := (v107 + 0x9) & 0xffffffffff
	vals[109] = v109
	v110 := (v107 * v109) & 0xffffffffff
	vals[110] = v110
	v112 := (v111 + v110) & 0xffffffffff
	vals[112] = v112
	v114 := (v102 ^ v111)
	vals[114] = v114
	v116 := (v59 << 5) & 0xffffffffff
	vals[116] = v116
	v118 := (v59 >> 35)
	vals[118] = v118
	v119 := (v116 | v118)
	vals[119] = v119
	v121 := (v119 + 0xb) & 0xffffffffff
	vals[121] = v121
	v122 := (v119 * v121) & 0xffffffffff
	vals[122] = v122
	v124 := (v123 + v122) & 0xffffffffff
	vals[124] = v124
	v126 := (v114 ^ v123)
	vals[126] = v126
	v127 := (v59 << 6) & 0xffffffffff
	vals[127] = v127
	v129 := (v59 >> 34)
	vals[129] = v129
	v130 := (v127 | v129)
	vals[130] = v130
	v132 := (v130 + 0xd) & 0xffffffffff
	vals[132] = v132
	v133 := (v130 * v132) & 0xffffffffff
	vals[133] = v133
	v135 := (v134 + v133) & 0xffffffffff
	vals[135] = v135
	v137 := (v126 ^ v134)
	vals[137] = v137
	v139 := (v59 << 7) & 0xffffffffff
	vals[139] = v139
	v141 := (v59 >> 33)
	vals[141] = v141
	v142 := (v139 | v141)
	vals[142] = v142
	v144 := (v142 + 0xf) & 0xffffffffff
	vals[144] = v144
	v145 := (v142 * v144) & 0xffffffffff
	vals[145] = v145
	v147 := (v146 + v145) & 0xffffffffff
	vals[147] = v147
	v149 := (v137 ^ v146)
	vals[149] = v149
	v150 := (v9 * v9) & 0xffffffff
	vals[150] = v150
	v151 := (v9 << 4) & 0xffff
	vals[151] = v151
	v152 := (v150 + v151) & 0xffffffff
	vals[152] = v152
	v154 := (v5 + 0x1) & 0x3f
	vals[154] = v154
	v155 := (v152 * v154) & 0xffffffff
	vals[155] = v155
	v157 := v149 & 0xffffffff
	vals[157] = v157
	v158 := (v155 ^ v157)
	vals[158] = v158
	v160 := (v159 + v158) & 0xffffffff
	vals[160] = v160
	v167 := (v166 + 0x1) & 0xffffff
	vals[167] = v167
	v172 := (v171 + 0x1) & 0xffffff
	vals[172] = v172
	v177 := (v176 + 0x1) & 0xffffff
	vals[177] = v177
	v182 := (v181 + 0x1) & 0xffffff
	vals[182] = v182
	v187 := (v186 + 0x1) & 0xffffff
	vals[187] = v187
	v192 := (v191 + 0x1) & 0xffffff
	vals[192] = v192
	v196 := (v195 + 0x1) & 0xffffff
	vals[196] = v196
	v199 := (v198 + 0x1) & 0xffffff
	vals[199] = v199
	v202 := (v201 + 0xc) & 0xffffff
	vals[202] = v202
	v205 := (v204 + v14) & 0xffffff
	vals[205] = v205
	v208 := (v207 + 0x1) & 0xffffff
	vals[208] = v208
	v211 := (v210 + v24) & 0xffffff
	vals[211] = v211
	v214 := (v213 + v27) & 0xffffff
	vals[214] = v214
	switch v10 {
	case 0x0:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x0
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x0
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x0
		vals[45] = 0x0
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x0
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		vals[50] = 0x0
		vals[52] = 0x1
		vals[53] = 0x1
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
		vals[163] = 0x1
		vals[164] = 0x1
		v168 := v167
		vals[168] = v168
		vals[169] = 0x0
		vals[170] = 0x0
		v173 := v171
		vals[173] = v173
		vals[174] = 0x0
		vals[175] = 0x0
		v178 := v176
		vals[178] = v178
		vals[179] = 0x0
		vals[180] = 0x0
		v183 := v181
		vals[183] = v183
		vals[184] = 0x0
		vals[185] = 0x0
		v188 := v186
		vals[188] = v188
		vals[189] = 0x0
		vals[190] = 0x0
		v193 := v191
		vals[193] = v193
		vals[194] = 0x0
		v197 := v195
		vals[197] = v197
		v200 := v198
		vals[200] = v200
		v203 := v201
		vals[203] = v203
		v206 := v204
		vals[206] = v206
		v209 := v207
		vals[209] = v209
		v212 := v210
		vals[212] = v212
		v215 := v213
		vals[215] = v215
	case 0x1:
		vals[12] = 0x1
		vals[20] = 0xc
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x1
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x1
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x1
		vals[45] = 0x1
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x1
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x1
		vals[50] = 0x2
		vals[52] = 0x0
		vals[53] = 0x2
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
		vals[163] = 0x0
		vals[164] = 0x0
		v168 := v166
		vals[168] = v168
		vals[169] = 0x1
		vals[170] = 0x1
		v173 := v172
		vals[173] = v173
		vals[174] = 0x0
		vals[175] = 0x0
		v178 := v176
		vals[178] = v178
		vals[179] = 0x0
		vals[180] = 0x0
		v183 := v181
		vals[183] = v183
		vals[184] = 0x0
		vals[185] = 0x0
		v188 := v186
		vals[188] = v188
		vals[189] = 0x0
		vals[190] = 0x0
		v193 := v191
		vals[193] = v193
		vals[194] = 0x0
		v197 := v195
		vals[197] = v197
		v200 := v199
		vals[200] = v200
		v203 := v202
		vals[203] = v203
		v206 := v205
		vals[206] = v206
		v209 := v207
		vals[209] = v209
		v212 := v210
		vals[212] = v212
		v215 := v213
		vals[215] = v215
	case 0x2:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x2
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x2
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x2
		vals[45] = 0x2
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x2
		}
		vals[46] = v46
		vals[48] = 0x1
		v49 := v46
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		vals[52] = 0x0
		v53 := v50
		vals[53] = v53
		v56 := v0
		vals[56] = v56
		vals[57] = 0x1
		v68 := v67
		vals[68] = v68
		v78 := v77
		vals[78] = v78
		v90 := v89
		vals[90] = v90
		v101 := v100
		vals[101] = v101
		v113 := v112
		vals[113] = v113
		v125 := v124
		vals[125] = v125
		v136 := v135
		vals[136] = v136
		v148 := v147
		vals[148] = v148
		v161 := v160
		vals[161] = v161
		vals[162] = 0x0
		var v163 uint64
		if v53 == 0x1 {
			v163 = 1
		}
		vals[163] = v163
		vals[164] = 0x0
		v168 := v166
		vals[168] = v168
		var v169 uint64
		if v53 == 0x2 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v171
		vals[173] = v173
		var v174 uint64
		if v53 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		v175 := v174
		vals[175] = v175
		var v178 uint64
		if v175 != 0 {
			v178 = v177
		} else {
			v178 = v176
		}
		vals[178] = v178
		var v179 uint64
		if v53 == 0x4 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v183 := v181
		vals[183] = v183
		var v184 uint64
		if v53 == 0x5 {
			v184 = 1
		}
		vals[184] = v184
		vals[185] = 0x0
		v188 := v186
		vals[188] = v188
		var v189 uint64
		if v53 == 0x6 {
			v189 = 1
		}
		vals[189] = v189
		vals[190] = 0x0
		v193 := v191
		vals[193] = v193
		vals[194] = 0x0
		v197 := v195
		vals[197] = v197
		v200 := v198
		vals[200] = v200
		v203 := v201
		vals[203] = v203
		v206 := v204
		vals[206] = v206
		v209 := v207
		vals[209] = v209
		v212 := v210
		vals[212] = v212
		v215 := v213
		vals[215] = v215
	case 0x3:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x1
		v32 := v24
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x3
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x3
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x3
		vals[45] = 0x4
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x3
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x4
		vals[50] = 0x4
		vals[52] = 0x0
		vals[53] = 0x4
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
		vals[163] = 0x0
		vals[164] = 0x0
		v168 := v166
		vals[168] = v168
		vals[169] = 0x0
		vals[170] = 0x0
		v173 := v171
		vals[173] = v173
		vals[174] = 0x0
		vals[175] = 0x0
		v178 := v176
		vals[178] = v178
		vals[179] = 0x1
		vals[180] = 0x1
		v183 := v182
		vals[183] = v183
		vals[184] = 0x0
		vals[185] = 0x0
		v188 := v186
		vals[188] = v188
		vals[189] = 0x0
		vals[190] = 0x0
		v193 := v191
		vals[193] = v193
		vals[194] = 0x0
		v197 := v195
		vals[197] = v197
		v200 := v198
		vals[200] = v200
		v203 := v201
		vals[203] = v203
		v206 := v204
		vals[206] = v206
		v209 := v208
		vals[209] = v209
		v212 := v211
		vals[212] = v212
		v215 := v214
		vals[215] = v215
	case 0x4:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x4
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x4
		}
		vals[41] = v41
		vals[43] = 0x1
		v44 := v41
		vals[44] = v44
		v45 := v44
		vals[45] = v45
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x4
		}
		vals[46] = v46
		vals[48] = 0x0
		v49 := v45
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		vals[52] = 0x0
		v53 := v50
		vals[53] = v53
		v56 := v0
		vals[56] = v56
		vals[57] = 0x1
		v68 := v67
		vals[68] = v68
		v78 := v77
		vals[78] = v78
		v90 := v89
		vals[90] = v90
		v101 := v100
		vals[101] = v101
		v113 := v112
		vals[113] = v113
		v125 := v124
		vals[125] = v125
		v136 := v135
		vals[136] = v136
		v148 := v147
		vals[148] = v148
		v161 := v160
		vals[161] = v161
		vals[162] = 0x0
		var v163 uint64
		if v53 == 0x1 {
			v163 = 1
		}
		vals[163] = v163
		vals[164] = 0x0
		v168 := v166
		vals[168] = v168
		var v169 uint64
		if v53 == 0x2 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v171
		vals[173] = v173
		var v174 uint64
		if v53 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		vals[175] = 0x0
		v178 := v176
		vals[178] = v178
		var v179 uint64
		if v53 == 0x4 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v183 := v181
		vals[183] = v183
		var v184 uint64
		if v53 == 0x5 {
			v184 = 1
		}
		vals[184] = v184
		v185 := v184
		vals[185] = v185
		var v188 uint64
		if v185 != 0 {
			v188 = v187
		} else {
			v188 = v186
		}
		vals[188] = v188
		var v189 uint64
		if v53 == 0x6 {
			v189 = 1
		}
		vals[189] = v189
		vals[190] = 0x0
		v193 := v191
		vals[193] = v193
		vals[194] = 0x0
		v197 := v195
		vals[197] = v197
		v200 := v198
		vals[200] = v200
		v203 := v201
		vals[203] = v203
		v206 := v204
		vals[206] = v206
		v209 := v207
		vals[209] = v209
		v212 := v210
		vals[212] = v212
		v215 := v213
		vals[215] = v215
	case 0x5:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x1
		v40 := v37
		vals[40] = v40
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x5
		}
		vals[41] = v41
		vals[43] = 0x0
		v44 := v40
		vals[44] = v44
		v45 := v44
		vals[45] = v45
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x5
		}
		vals[46] = v46
		vals[48] = 0x0
		v49 := v45
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		vals[52] = 0x0
		v53 := v50
		vals[53] = v53
		v56 := v55
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x0
		var v163 uint64
		if v53 == 0x1 {
			v163 = 1
		}
		vals[163] = v163
		vals[164] = 0x0
		v168 := v166
		vals[168] = v168
		var v169 uint64
		if v53 == 0x2 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v171
		vals[173] = v173
		var v174 uint64
		if v53 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		vals[175] = 0x0
		v178 := v176
		vals[178] = v178
		var v179 uint64
		if v53 == 0x4 {
			v179 = 1
		}
		vals[179] = v179
		vals[180] = 0x0
		v183 := v181
		vals[183] = v183
		var v184 uint64
		if v53 == 0x5 {
			v184 = 1
		}
		vals[184] = v184
		vals[185] = 0x0
		v188 := v186
		vals[188] = v188
		var v189 uint64
		if v53 == 0x6 {
			v189 = 1
		}
		vals[189] = v189
		v190 := v189
		vals[190] = v190
		var v193 uint64
		if v190 != 0 {
			v193 = v192
		} else {
			v193 = v191
		}
		vals[193] = v193
		v194 := v163
		vals[194] = v194
		var v197 uint64
		if v194 != 0 {
			v197 = v196
		} else {
			v197 = v195
		}
		vals[197] = v197
		v200 := v198
		vals[200] = v200
		v203 := v201
		vals[203] = v203
		v206 := v204
		vals[206] = v206
		v209 := v207
		vals[209] = v209
		v212 := v210
		vals[212] = v212
		v215 := v213
		vals[215] = v215
	case 0x6:
		vals[12] = 0x0
		v20 := v19
		vals[20] = v20
		vals[26] = 0x0
		v32 := v31
		vals[32] = v32
		vals[39] = 0x0
		vals[40] = 0x6
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = 0x6
		}
		vals[41] = v41
		vals[43] = 0x0
		vals[44] = 0x6
		vals[45] = 0x6
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = 0x6
		}
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x6
		vals[50] = 0x6
		vals[52] = 0x0
		vals[53] = 0x6
		v56 := v0
		vals[56] = v56
		vals[57] = 0x0
		v68 := v66
		vals[68] = v68
		v78 := v76
		vals[78] = v78
		v90 := v88
		vals[90] = v90
		v101 := v99
		vals[101] = v101
		v113 := v111
		vals[113] = v113
		v125 := v123
		vals[125] = v125
		v136 := v134
		vals[136] = v136
		v148 := v146
		vals[148] = v148
		v161 := v159
		vals[161] = v161
		vals[162] = 0x1
		vals[163] = 0x0
		vals[164] = 0x0
		v168 := v166
		vals[168] = v168
		vals[169] = 0x0
		vals[170] = 0x0
		v173 := v171
		vals[173] = v173
		vals[174] = 0x0
		vals[175] = 0x0
		v178 := v176
		vals[178] = v178
		vals[179] = 0x0
		vals[180] = 0x0
		v183 := v181
		vals[183] = v183
		vals[184] = 0x0
		vals[185] = 0x0
		v188 := v186
		vals[188] = v188
		vals[189] = 0x1
		vals[190] = 0x0
		v193 := v191
		vals[193] = v193
		vals[194] = 0x0
		v197 := v195
		vals[197] = v197
		v200 := v198
		vals[200] = v200
		v203 := v201
		vals[203] = v203
		v206 := v204
		vals[206] = v206
		v209 := v207
		vals[209] = v209
		v212 := v210
		vals[212] = v212
		v215 := v213
		vals[215] = v215
	default:
		var v12 uint64
		if v10 == 0x1 {
			v12 = 1
		}
		vals[12] = v12
		var v20 uint64
		if v12 != 0 {
			v20 = 0xc
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v26 uint64
		if v10 == 0x3 {
			v26 = 1
		}
		vals[26] = v26
		var v32 uint64
		if v26 != 0 {
			v32 = v24
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v39 uint64
		if v10 == 0x5 {
			v39 = 1
		}
		vals[39] = v39
		var v40 uint64
		if v39 != 0 {
			v40 = v37
		} else {
			v40 = v10
		}
		vals[40] = v40
		var v41 uint64
		if v34 != 0 {
			v41 = 0x5
		} else {
			v41 = v10
		}
		vals[41] = v41
		var v43 uint64
		if v10 == 0x4 {
			v43 = 1
		}
		vals[43] = v43
		var v44 uint64
		if v43 != 0 {
			v44 = v41
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v45 uint64
		if v26 != 0 {
			v45 = 0x4
		} else {
			v45 = v44
		}
		vals[45] = v45
		var v46 uint64
		if v33 != 0 {
			v46 = 0x3
		} else {
			v46 = v10
		}
		vals[46] = v46
		var v48 uint64
		if v10 == 0x2 {
			v48 = 1
		}
		vals[48] = v48
		var v49 uint64
		if v48 != 0 {
			v49 = v46
		} else {
			v49 = v45
		}
		vals[49] = v49
		var v50 uint64
		if v12 != 0 {
			v50 = 0x2
		} else {
			v50 = v49
		}
		vals[50] = v50
		var v52 uint64
		if v10 == 0x0 {
			v52 = 1
		}
		vals[52] = v52
		var v53 uint64
		if v52 != 0 {
			v53 = 0x1
		} else {
			v53 = v50
		}
		vals[53] = v53
		var v56 uint64
		if v39 != 0 {
			v56 = v55
		} else {
			v56 = v0
		}
		vals[56] = v56
		v57 := (v48 | v43)
		vals[57] = v57
		var v68 uint64
		if v57 != 0 {
			v68 = v67
		} else {
			v68 = v66
		}
		vals[68] = v68
		var v78 uint64
		if v57 != 0 {
			v78 = v77
		} else {
			v78 = v76
		}
		vals[78] = v78
		var v90 uint64
		if v57 != 0 {
			v90 = v89
		} else {
			v90 = v88
		}
		vals[90] = v90
		var v101 uint64
		if v57 != 0 {
			v101 = v100
		} else {
			v101 = v99
		}
		vals[101] = v101
		var v113 uint64
		if v57 != 0 {
			v113 = v112
		} else {
			v113 = v111
		}
		vals[113] = v113
		var v125 uint64
		if v57 != 0 {
			v125 = v124
		} else {
			v125 = v123
		}
		vals[125] = v125
		var v136 uint64
		if v57 != 0 {
			v136 = v135
		} else {
			v136 = v134
		}
		vals[136] = v136
		var v148 uint64
		if v57 != 0 {
			v148 = v147
		} else {
			v148 = v146
		}
		vals[148] = v148
		var v161 uint64
		if v57 != 0 {
			v161 = v160
		} else {
			v161 = v159
		}
		vals[161] = v161
		var v162 uint64
		if v10 == 0x6 {
			v162 = 1
		}
		vals[162] = v162
		var v163 uint64
		if v53 == 0x1 {
			v163 = 1
		}
		vals[163] = v163
		v164 := v52 & v163
		vals[164] = v164
		var v168 uint64
		if v164 != 0 {
			v168 = v167
		} else {
			v168 = v166
		}
		vals[168] = v168
		var v169 uint64
		if v53 == 0x2 {
			v169 = 1
		}
		vals[169] = v169
		v170 := v12 & v169
		vals[170] = v170
		var v173 uint64
		if v170 != 0 {
			v173 = v172
		} else {
			v173 = v171
		}
		vals[173] = v173
		var v174 uint64
		if v53 == 0x3 {
			v174 = 1
		}
		vals[174] = v174
		v175 := v48 & v174
		vals[175] = v175
		var v178 uint64
		if v175 != 0 {
			v178 = v177
		} else {
			v178 = v176
		}
		vals[178] = v178
		var v179 uint64
		if v53 == 0x4 {
			v179 = 1
		}
		vals[179] = v179
		v180 := v26 & v179
		vals[180] = v180
		var v183 uint64
		if v180 != 0 {
			v183 = v182
		} else {
			v183 = v181
		}
		vals[183] = v183
		var v184 uint64
		if v53 == 0x5 {
			v184 = 1
		}
		vals[184] = v184
		v185 := v43 & v184
		vals[185] = v185
		var v188 uint64
		if v185 != 0 {
			v188 = v187
		} else {
			v188 = v186
		}
		vals[188] = v188
		var v189 uint64
		if v53 == 0x6 {
			v189 = 1
		}
		vals[189] = v189
		v190 := v39 & v189
		vals[190] = v190
		var v193 uint64
		if v190 != 0 {
			v193 = v192
		} else {
			v193 = v191
		}
		vals[193] = v193
		v194 := v39 & v163
		vals[194] = v194
		var v197 uint64
		if v194 != 0 {
			v197 = v196
		} else {
			v197 = v195
		}
		vals[197] = v197
		var v200 uint64
		if v12 != 0 {
			v200 = v199
		} else {
			v200 = v198
		}
		vals[200] = v200
		var v203 uint64
		if v12 != 0 {
			v203 = v202
		} else {
			v203 = v201
		}
		vals[203] = v203
		var v206 uint64
		if v12 != 0 {
			v206 = v205
		} else {
			v206 = v204
		}
		vals[206] = v206
		var v209 uint64
		if v26 != 0 {
			v209 = v208
		} else {
			v209 = v207
		}
		vals[209] = v209
		var v212 uint64
		if v26 != 0 {
			v212 = v211
		} else {
			v212 = v210
		}
		vals[212] = v212
		var v215 uint64
		if v26 != 0 {
			v215 = v214
		} else {
			v215 = v213
		}
		vals[215] = v215
	}
	done := vals[162] != 0
	if vals[39] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[159]
		}
	}
	l0 := vals[56] & 0x7ff
	l1 := vals[53] & 0x7
	l2 := vals[20] & 0xf
	l3 := vals[32] & 0x7f
	l4 := vals[68] & 0xffffffffff
	l5 := vals[78] & 0xffffffffff
	l6 := vals[90] & 0xffffffffff
	l7 := vals[101] & 0xffffffffff
	l8 := vals[113] & 0xffffffffff
	l9 := vals[125] & 0xffffffffff
	l10 := vals[136] & 0xffffffffff
	l11 := vals[148] & 0xffffffffff
	l12 := vals[161] & 0xffffffff
	l13 := vals[168] & 0xffffff
	l14 := vals[173] & 0xffffff
	l15 := vals[178] & 0xffffff
	l16 := vals[183] & 0xffffff
	l17 := vals[188] & 0xffffff
	l18 := vals[193] & 0xffffff
	l19 := vals[197] & 0xffffff
	l20 := vals[200] & 0xffffff
	l21 := vals[203] & 0xffffff
	l22 := vals[206] & 0xffffff
	l23 := vals[209] & 0xffffff
	l24 := vals[212] & 0xffffff
	l25 := vals[215] & 0xffffff
	vals[0] = l0
	vals[10] = l1
	vals[14] = l2
	vals[27] = l3
	vals[66] = l4
	vals[76] = l5
	vals[88] = l6
	vals[99] = l7
	vals[111] = l8
	vals[123] = l9
	vals[134] = l10
	vals[146] = l11
	vals[159] = l12
	vals[166] = l13
	vals[171] = l14
	vals[176] = l15
	vals[181] = l16
	vals[186] = l17
	vals[191] = l18
	vals[195] = l19
	vals[198] = l20
	vals[201] = l21
	vals[204] = l22
	vals[207] = l23
	vals[210] = l24
	vals[213] = l25
	return cycles + 1, done
}

func step_cjpeg_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[191]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v21 := vals[21]
	v53 := vals[53]
	v66 := vals[66]
	v73 := vals[73]
	v81 := vals[81]
	v88 := vals[88]
	v96 := vals[96]
	v104 := vals[104]
	v111 := vals[111]
	v119 := vals[119]
	v138 := vals[138]
	v144 := vals[144]
	v149 := vals[149]
	v154 := vals[154]
	v159 := vals[159]
	v164 := vals[164]
	v169 := vals[169]
	v173 := vals[173]
	v176 := vals[176]
	v179 := vals[179]
	v182 := vals[182]
	v185 := vals[185]
	v188 := vals[188]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v1 {
		case 0x0:
			var v37 uint64
			if v13 != 0x0 {
				v37 = 1
			}
			v39 := (v13 - 0x1) & 0xf
			var v40 uint64
			if v37 != 0 {
				v40 = v39
			} else {
				v40 = v13
			}
			var v48 uint64
			if v21 != 0x0 {
				v48 = 1
			}
			v50 := (v21 - 0x1) & 0x7f
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v21
			}
			v142 := (v138 + 0x1) & 0xffffff
			v6 := v0
			v41 := v40
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v142
			v148 := v144
			v153 := v149
			v158 := v154
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			n0 := v6
			n2 := v41
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = 0x1
			v13 = n2
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		case 0x1:
			var v48 uint64
			if v21 != 0x0 {
				v48 = 1
			}
			v50 := (v21 - 0x1) & 0x7f
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v21
			}
			v147 := (v144 + 0x1) & 0xffffff
			v174 := (v173 + 0x1) & 0xffffff
			v177 := (v176 + 0xc) & 0xffffff
			v180 := (v179 + v13) & 0xffffff
			v6 := v0
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v138
			v148 := v147
			v153 := v149
			v158 := v154
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v174
			v178 := v177
			v181 := v180
			v184 := v182
			v187 := v185
			v190 := v188
			n0 := v6
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = 0x2
			v13 = 0xc
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		case 0x2:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v37 uint64
			if v13 != 0x0 {
				v37 = 1
			}
			v39 := (v13 - 0x1) & 0xf
			var v40 uint64
			if v37 != 0 {
				v40 = v39
			} else {
				v40 = v13
			}
			var v42 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v42 = m0[addr] & 0x3fffff
			}
			v44 := v42 & 0x3f
			var v48 uint64
			if v21 != 0x0 {
				v48 = 1
			}
			v50 := (v21 - 0x1) & 0x7f
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v21
			}
			v56 := (v42 >> 6)
			v58 := v56 & 0xffff
			v60 := v58
			v62 := (v60 + 0x1) & 0xffffffffff
			v63 := (v60 * v62) & 0xffffffffff
			v64 := (v53 + v63) & 0xffffffffff
			v67 := (v60 << 1) & 0xffffffffff
			v69 := (v67 + 0x3) & 0xffffffffff
			v70 := (v67 * v69) & 0xffffffffff
			v71 := (v66 + v70) & 0xffffffffff
			v75 := (v60 << 2) & 0xffffffffff
			v77 := (v75 + 0x5) & 0xffffffffff
			v78 := (v75 * v77) & 0xffffffffff
			v79 := (v73 + v78) & 0xffffffffff
			v82 := (v60 << 3) & 0xffffffffff
			v84 := (v82 + 0x7) & 0xffffffffff
			v85 := (v82 * v84) & 0xffffffffff
			v86 := (v81 + v85) & 0xffffffffff
			v90 := (v60 << 4) & 0xffffffffff
			v92 := (v90 + 0x9) & 0xffffffffff
			v93 := (v90 * v92) & 0xffffffffff
			v94 := (v88 + v93) & 0xffffffffff
			v98 := (v60 << 5) & 0xffffffffff
			v100 := (v98 + 0xb) & 0xffffffffff
			v101 := (v98 * v100) & 0xffffffffff
			v102 := (v96 + v101) & 0xffffffffff
			v105 := (v60 << 6) & 0xffffffffff
			v107 := (v105 + 0xd) & 0xffffffffff
			v108 := (v105 * v107) & 0xffffffffff
			v109 := (v104 + v108) & 0xffffffffff
			v113 := (v60 << 7) & 0xffffffffff
			v115 := (v113 + 0xf) & 0xffffffffff
			v116 := (v113 * v115) & 0xffffffffff
			v117 := (v111 + v116) & 0xffffffffff
			v120 := (v58 * v58) & 0xffffffff
			v121 := (v58 << 4) & 0xffff
			v122 := (v120 + v121) & 0xffffffff
			v124 := (v44 + 0x1) & 0x3f
			v125 := (v122 * v124) & 0xffffffff
			v126 := (v53 ^ v66)
			v127 := (v126 ^ v73)
			v128 := (v127 ^ v81)
			v129 := (v128 ^ v88)
			v130 := (v129 ^ v96)
			v131 := (v130 ^ v104)
			v132 := (v131 ^ v111)
			v134 := v132 & 0xffffffff
			v135 := (v125 ^ v134)
			v136 := (v119 + v135) & 0xffffffff
			v152 := (v149 + 0x1) & 0xffffff
			v6 := v0
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = 0x2
			}
			v33 := v17
			v34 := v33
			v35 := v34
			v41 := v40
			v52 := v51
			v65 := v64
			v72 := v71
			v80 := v79
			v87 := v86
			v95 := v94
			v103 := v102
			v110 := v109
			v118 := v117
			v137 := v136
			v143 := v138
			v148 := v144
			var v150 uint64
			if v35 == 0x3 {
				v150 = 1
			}
			v151 := v150
			var v153 uint64
			if v151 != 0 {
				v153 = v152
			} else {
				v153 = v149
			}
			v158 := v154
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			n0 := v6
			n1 := v35
			n2 := v41
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = n1
			v13 = n2
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		case 0x3:
			var v37 uint64
			if v13 != 0x0 {
				v37 = 1
			}
			v39 := (v13 - 0x1) & 0xf
			var v40 uint64
			if v37 != 0 {
				v40 = v39
			} else {
				v40 = v13
			}
			var v42 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v42 = m0[addr] & 0x3fffff
			}
			v44 := v42 & 0x3f
			v45 := v44
			v47 := (v45 + 0x3) & 0x7f
			v157 := (v154 + 0x1) & 0xffffff
			v183 := (v182 + 0x1) & 0xffffff
			v186 := (v185 + v47) & 0xffffff
			v189 := (v188 + v21) & 0xffffff
			v6 := v0
			v41 := v40
			v52 := v47
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			v143 := v138
			v148 := v144
			v153 := v149
			v158 := v157
			v163 := v159
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v183
			v187 := v186
			v190 := v189
			n0 := v6
			n2 := v41
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = 0x4
			v13 = n2
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		case 0x4:
			var v23 uint64
			if v21 == 0x0 {
				v23 = 1
			}
			var v37 uint64
			if v13 != 0x0 {
				v37 = 1
			}
			v39 := (v13 - 0x1) & 0xf
			var v40 uint64
			if v37 != 0 {
				v40 = v39
			} else {
				v40 = v13
			}
			var v42 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v42 = m0[addr] & 0x3fffff
			}
			v44 := v42 & 0x3f
			var v48 uint64
			if v21 != 0x0 {
				v48 = 1
			}
			v50 := (v21 - 0x1) & 0x7f
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v21
			}
			v56 := (v42 >> 6)
			v58 := v56 & 0xffff
			v60 := v58
			v62 := (v60 + 0x1) & 0xffffffffff
			v63 := (v60 * v62) & 0xffffffffff
			v64 := (v53 + v63) & 0xffffffffff
			v67 := (v60 << 1) & 0xffffffffff
			v69 := (v67 + 0x3) & 0xffffffffff
			v70 := (v67 * v69) & 0xffffffffff
			v71 := (v66 + v70) & 0xffffffffff
			v75 := (v60 << 2) & 0xffffffffff
			v77 := (v75 + 0x5) & 0xffffffffff
			v78 := (v75 * v77) & 0xffffffffff
			v79 := (v73 + v78) & 0xffffffffff
			v82 := (v60 << 3) & 0xffffffffff
			v84 := (v82 + 0x7) & 0xffffffffff
			v85 := (v82 * v84) & 0xffffffffff
			v86 := (v81 + v85) & 0xffffffffff
			v90 := (v60 << 4) & 0xffffffffff
			v92 := (v90 + 0x9) & 0xffffffffff
			v93 := (v90 * v92) & 0xffffffffff
			v94 := (v88 + v93) & 0xffffffffff
			v98 := (v60 << 5) & 0xffffffffff
			v100 := (v98 + 0xb) & 0xffffffffff
			v101 := (v98 * v100) & 0xffffffffff
			v102 := (v96 + v101) & 0xffffffffff
			v105 := (v60 << 6) & 0xffffffffff
			v107 := (v105 + 0xd) & 0xffffffffff
			v108 := (v105 * v107) & 0xffffffffff
			v109 := (v104 + v108) & 0xffffffffff
			v113 := (v60 << 7) & 0xffffffffff
			v115 := (v113 + 0xf) & 0xffffffffff
			v116 := (v113 * v115) & 0xffffffffff
			v117 := (v111 + v116) & 0xffffffffff
			v120 := (v58 * v58) & 0xffffffff
			v121 := (v58 << 4) & 0xffff
			v122 := (v120 + v121) & 0xffffffff
			v124 := (v44 + 0x1) & 0x3f
			v125 := (v122 * v124) & 0xffffffff
			v126 := (v53 ^ v66)
			v127 := (v126 ^ v73)
			v128 := (v127 ^ v81)
			v129 := (v128 ^ v88)
			v130 := (v129 ^ v96)
			v131 := (v130 ^ v104)
			v132 := (v131 ^ v111)
			v134 := v132 & 0xffffffff
			v135 := (v125 ^ v134)
			v136 := (v119 + v135) & 0xffffffff
			v162 := (v159 + 0x1) & 0xffffff
			v6 := v0
			var v24 uint64
			if v23 != 0 {
				v24 = 0x5
			} else {
				v24 = 0x4
			}
			v31 := v24
			v32 := v31
			v33 := v32
			v34 := v33
			v35 := v34
			v41 := v40
			v52 := v51
			v65 := v64
			v72 := v71
			v80 := v79
			v87 := v86
			v95 := v94
			v103 := v102
			v110 := v109
			v118 := v117
			v137 := v136
			v143 := v138
			v148 := v144
			v153 := v149
			v158 := v154
			var v160 uint64
			if v35 == 0x5 {
				v160 = 1
			}
			v161 := v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			v168 := v164
			v172 := v169
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			n0 := v6
			n1 := v35
			n2 := v41
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = n1
			v13 = n2
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		case 0x5:
			v5 := (v0 + 0x1) & 0x7ff
			var v26 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7ff
			}
			var v27 uint64
			if v26 <= v0 {
				v27 = 1
			}
			var v29 uint64
			if v27 != 0 {
				v29 = 0x6
			} else {
				v29 = 0x1
			}
			var v37 uint64
			if v13 != 0x0 {
				v37 = 1
			}
			v39 := (v13 - 0x1) & 0xf
			var v40 uint64
			if v37 != 0 {
				v40 = v39
			} else {
				v40 = v13
			}
			var v48 uint64
			if v21 != 0x0 {
				v48 = 1
			}
			v50 := (v21 - 0x1) & 0x7f
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v21
			}
			v167 := (v164 + 0x1) & 0xffffff
			v171 := (v169 + 0x1) & 0xffffff
			v6 := v5
			v30 := v29
			v31 := v30
			v32 := v31
			v33 := v32
			v34 := v33
			v35 := v34
			v41 := v40
			v52 := v51
			v65 := v53
			v72 := v66
			v80 := v73
			v87 := v81
			v95 := v88
			v103 := v96
			v110 := v104
			v118 := v111
			v137 := v119
			var v139 uint64
			if v35 == 0x1 {
				v139 = 1
			}
			v143 := v138
			v148 := v144
			v153 := v149
			v158 := v154
			v163 := v159
			var v165 uint64
			if v35 == 0x6 {
				v165 = 1
			}
			v166 := v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v139
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			v175 := v173
			v178 := v176
			v181 := v179
			v184 := v182
			v187 := v185
			v190 := v188
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v119
			}
			n0 := v6
			n1 := v35
			n2 := v41
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = n1
			v13 = n2
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		case 0x6:
			break loop
		default:
			v5 := (v0 + 0x1) & 0x7ff
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v23 uint64
			if v21 == 0x0 {
				v23 = 1
			}
			var v26 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7ff
			}
			var v27 uint64
			if v26 <= v0 {
				v27 = 1
			}
			var v29 uint64
			if v27 != 0 {
				v29 = 0x6
			} else {
				v29 = 0x1
			}
			var v37 uint64
			if v13 != 0x0 {
				v37 = 1
			}
			v39 := (v13 - 0x1) & 0xf
			var v40 uint64
			if v37 != 0 {
				v40 = v39
			} else {
				v40 = v13
			}
			var v42 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v42 = m0[addr] & 0x3fffff
			}
			v44 := v42 & 0x3f
			v45 := v44
			v47 := (v45 + 0x3) & 0x7f
			var v48 uint64
			if v21 != 0x0 {
				v48 = 1
			}
			v50 := (v21 - 0x1) & 0x7f
			var v51 uint64
			if v48 != 0 {
				v51 = v50
			} else {
				v51 = v21
			}
			v56 := (v42 >> 6)
			v58 := v56 & 0xffff
			v60 := v58
			v62 := (v60 + 0x1) & 0xffffffffff
			v63 := (v60 * v62) & 0xffffffffff
			v64 := (v53 + v63) & 0xffffffffff
			v67 := (v60 << 1) & 0xffffffffff
			v69 := (v67 + 0x3) & 0xffffffffff
			v70 := (v67 * v69) & 0xffffffffff
			v71 := (v66 + v70) & 0xffffffffff
			v75 := (v60 << 2) & 0xffffffffff
			v77 := (v75 + 0x5) & 0xffffffffff
			v78 := (v75 * v77) & 0xffffffffff
			v79 := (v73 + v78) & 0xffffffffff
			v82 := (v60 << 3) & 0xffffffffff
			v84 := (v82 + 0x7) & 0xffffffffff
			v85 := (v82 * v84) & 0xffffffffff
			v86 := (v81 + v85) & 0xffffffffff
			v90 := (v60 << 4) & 0xffffffffff
			v92 := (v90 + 0x9) & 0xffffffffff
			v93 := (v90 * v92) & 0xffffffffff
			v94 := (v88 + v93) & 0xffffffffff
			v98 := (v60 << 5) & 0xffffffffff
			v100 := (v98 + 0xb) & 0xffffffffff
			v101 := (v98 * v100) & 0xffffffffff
			v102 := (v96 + v101) & 0xffffffffff
			v105 := (v60 << 6) & 0xffffffffff
			v107 := (v105 + 0xd) & 0xffffffffff
			v108 := (v105 * v107) & 0xffffffffff
			v109 := (v104 + v108) & 0xffffffffff
			v113 := (v60 << 7) & 0xffffffffff
			v115 := (v113 + 0xf) & 0xffffffffff
			v116 := (v113 * v115) & 0xffffffffff
			v117 := (v111 + v116) & 0xffffffffff
			v120 := (v58 * v58) & 0xffffffff
			v121 := (v58 << 4) & 0xffff
			v122 := (v120 + v121) & 0xffffffff
			v124 := (v44 + 0x1) & 0x3f
			v125 := (v122 * v124) & 0xffffffff
			v126 := (v53 ^ v66)
			v127 := (v126 ^ v73)
			v128 := (v127 ^ v81)
			v129 := (v128 ^ v88)
			v130 := (v129 ^ v96)
			v131 := (v130 ^ v104)
			v132 := (v131 ^ v111)
			v134 := v132 & 0xffffffff
			v135 := (v125 ^ v134)
			v136 := (v119 + v135) & 0xffffffff
			v142 := (v138 + 0x1) & 0xffffff
			v147 := (v144 + 0x1) & 0xffffff
			v152 := (v149 + 0x1) & 0xffffff
			v157 := (v154 + 0x1) & 0xffffff
			v162 := (v159 + 0x1) & 0xffffff
			v167 := (v164 + 0x1) & 0xffffff
			v171 := (v169 + 0x1) & 0xffffff
			v174 := (v173 + 0x1) & 0xffffff
			v177 := (v176 + 0xc) & 0xffffff
			v180 := (v179 + v13) & 0xffffff
			v183 := (v182 + 0x1) & 0xffffff
			v186 := (v185 + v47) & 0xffffff
			v189 := (v188 + v21) & 0xffffff
			var v3 uint64
			if v1 == 0x5 {
				v3 = 1
			}
			var v6 uint64
			if v3 != 0 {
				v6 = v5
			} else {
				v6 = v0
			}
			var v8 uint64
			if v1 == 0x0 {
				v8 = 1
			}
			var v10 uint64
			if v1 == 0x1 {
				v10 = 1
			}
			var v12 uint64
			if v1 == 0x2 {
				v12 = 1
			}
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = v1
			}
			var v18 uint64
			if v1 == 0x3 {
				v18 = 1
			}
			var v20 uint64
			if v1 == 0x4 {
				v20 = 1
			}
			var v24 uint64
			if v23 != 0 {
				v24 = 0x5
			} else {
				v24 = v1
			}
			var v30 uint64
			if v3 != 0 {
				v30 = v29
			} else {
				v30 = v1
			}
			var v31 uint64
			if v20 != 0 {
				v31 = v24
			} else {
				v31 = v30
			}
			var v32 uint64
			if v18 != 0 {
				v32 = 0x4
			} else {
				v32 = v31
			}
			var v33 uint64
			if v12 != 0 {
				v33 = v17
			} else {
				v33 = v32
			}
			var v34 uint64
			if v10 != 0 {
				v34 = 0x2
			} else {
				v34 = v33
			}
			var v35 uint64
			if v8 != 0 {
				v35 = 0x1
			} else {
				v35 = v34
			}
			var v41 uint64
			if v10 != 0 {
				v41 = 0xc
			} else {
				v41 = v40
			}
			var v52 uint64
			if v18 != 0 {
				v52 = v47
			} else {
				v52 = v51
			}
			v54 := (v12 | v20)
			var v65 uint64
			if v54 != 0 {
				v65 = v64
			} else {
				v65 = v53
			}
			var v72 uint64
			if v54 != 0 {
				v72 = v71
			} else {
				v72 = v66
			}
			var v80 uint64
			if v54 != 0 {
				v80 = v79
			} else {
				v80 = v73
			}
			var v87 uint64
			if v54 != 0 {
				v87 = v86
			} else {
				v87 = v81
			}
			var v95 uint64
			if v54 != 0 {
				v95 = v94
			} else {
				v95 = v88
			}
			var v103 uint64
			if v54 != 0 {
				v103 = v102
			} else {
				v103 = v96
			}
			var v110 uint64
			if v54 != 0 {
				v110 = v109
			} else {
				v110 = v104
			}
			var v118 uint64
			if v54 != 0 {
				v118 = v117
			} else {
				v118 = v111
			}
			var v137 uint64
			if v54 != 0 {
				v137 = v136
			} else {
				v137 = v119
			}
			var v139 uint64
			if v35 == 0x1 {
				v139 = 1
			}
			v140 := v8 & v139
			var v143 uint64
			if v140 != 0 {
				v143 = v142
			} else {
				v143 = v138
			}
			var v145 uint64
			if v35 == 0x2 {
				v145 = 1
			}
			v146 := v10 & v145
			var v148 uint64
			if v146 != 0 {
				v148 = v147
			} else {
				v148 = v144
			}
			var v150 uint64
			if v35 == 0x3 {
				v150 = 1
			}
			v151 := v12 & v150
			var v153 uint64
			if v151 != 0 {
				v153 = v152
			} else {
				v153 = v149
			}
			var v155 uint64
			if v35 == 0x4 {
				v155 = 1
			}
			v156 := v18 & v155
			var v158 uint64
			if v156 != 0 {
				v158 = v157
			} else {
				v158 = v154
			}
			var v160 uint64
			if v35 == 0x5 {
				v160 = 1
			}
			v161 := v20 & v160
			var v163 uint64
			if v161 != 0 {
				v163 = v162
			} else {
				v163 = v159
			}
			var v165 uint64
			if v35 == 0x6 {
				v165 = 1
			}
			v166 := v3 & v165
			var v168 uint64
			if v166 != 0 {
				v168 = v167
			} else {
				v168 = v164
			}
			v170 := v3 & v139
			var v172 uint64
			if v170 != 0 {
				v172 = v171
			} else {
				v172 = v169
			}
			var v175 uint64
			if v10 != 0 {
				v175 = v174
			} else {
				v175 = v173
			}
			var v178 uint64
			if v10 != 0 {
				v178 = v177
			} else {
				v178 = v176
			}
			var v181 uint64
			if v10 != 0 {
				v181 = v180
			} else {
				v181 = v179
			}
			var v184 uint64
			if v18 != 0 {
				v184 = v183
			} else {
				v184 = v182
			}
			var v187 uint64
			if v18 != 0 {
				v187 = v186
			} else {
				v187 = v185
			}
			var v190 uint64
			if v18 != 0 {
				v190 = v189
			} else {
				v190 = v188
			}
			var v191 uint64
			if v1 == 0x6 {
				v191 = 1
			}
			if v191 != 0 {
				break loop
			}
			if v3 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v119
				}
			}
			n0 := v6
			n1 := v35
			n2 := v41
			n3 := v52
			n4 := v65
			n5 := v72
			n6 := v80
			n7 := v87
			n8 := v95
			n9 := v103
			n10 := v110
			n11 := v118
			n12 := v137
			n13 := v143
			n14 := v148
			n15 := v153
			n16 := v158
			n17 := v163
			n18 := v168
			n19 := v172
			n20 := v175
			n21 := v178
			n22 := v181
			n23 := v184
			n24 := v187
			n25 := v190
			v0 = n0
			v1 = n1
			v13 = n2
			v21 = n3
			v53 = n4
			v66 = n5
			v73 = n6
			v81 = n7
			v88 = n8
			v96 = n9
			v104 = n10
			v111 = n11
			v119 = n12
			v138 = n13
			v144 = n14
			v149 = n15
			v154 = n16
			v159 = n17
			v164 = n18
			v169 = n19
			v173 = n20
			v176 = n21
			v179 = n22
			v182 = n23
			v185 = n24
			v188 = n25
		}
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[21] = v21
	vals[53] = v53
	vals[66] = v66
	vals[73] = v73
	vals[81] = v81
	vals[88] = v88
	vals[96] = v96
	vals[104] = v104
	vals[111] = v111
	vals[119] = v119
	vals[138] = v138
	vals[144] = v144
	vals[149] = v149
	vals[154] = v154
	vals[159] = v159
	vals[164] = v164
	vals[169] = v169
	vals[173] = v173
	vals[176] = v176
	vals[179] = v179
	vals[182] = v182
	vals[185] = v185
	vals[188] = v188
	v5 := (v0 + 0x1) & 0x7ff
	vals[5] = v5
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v23 uint64
	if v21 == 0x0 {
		v23 = 1
	}
	vals[23] = v23
	var v26 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v26 = m0[addr] & 0x7ff
	}
	vals[26] = v26
	var v27 uint64
	if v26 <= v0 {
		v27 = 1
	}
	vals[27] = v27
	var v29 uint64
	if v27 != 0 {
		v29 = 0x6
	} else {
		v29 = 0x1
	}
	vals[29] = v29
	var v37 uint64
	if v13 != 0x0 {
		v37 = 1
	}
	vals[37] = v37
	v39 := (v13 - 0x1) & 0xf
	vals[39] = v39
	var v40 uint64
	if v37 != 0 {
		v40 = v39
	} else {
		v40 = v13
	}
	vals[40] = v40
	var v42 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v42 = m0[addr] & 0x3fffff
	}
	vals[42] = v42
	v44 := v42 & 0x3f
	vals[44] = v44
	v45 := v44
	vals[45] = v45
	v47 := (v45 + 0x3) & 0x7f
	vals[47] = v47
	var v48 uint64
	if v21 != 0x0 {
		v48 = 1
	}
	vals[48] = v48
	v50 := (v21 - 0x1) & 0x7f
	vals[50] = v50
	var v51 uint64
	if v48 != 0 {
		v51 = v50
	} else {
		v51 = v21
	}
	vals[51] = v51
	v56 := (v42 >> 6)
	vals[56] = v56
	v58 := v56 & 0xffff
	vals[58] = v58
	v60 := v58
	vals[60] = v60
	v62 := (v60 + 0x1) & 0xffffffffff
	vals[62] = v62
	v63 := (v60 * v62) & 0xffffffffff
	vals[63] = v63
	v64 := (v53 + v63) & 0xffffffffff
	vals[64] = v64
	v67 := (v60 << 1) & 0xffffffffff
	vals[67] = v67
	v69 := (v67 + 0x3) & 0xffffffffff
	vals[69] = v69
	v70 := (v67 * v69) & 0xffffffffff
	vals[70] = v70
	v71 := (v66 + v70) & 0xffffffffff
	vals[71] = v71
	v75 := (v60 << 2) & 0xffffffffff
	vals[75] = v75
	v77 := (v75 + 0x5) & 0xffffffffff
	vals[77] = v77
	v78 := (v75 * v77) & 0xffffffffff
	vals[78] = v78
	v79 := (v73 + v78) & 0xffffffffff
	vals[79] = v79
	v82 := (v60 << 3) & 0xffffffffff
	vals[82] = v82
	v84 := (v82 + 0x7) & 0xffffffffff
	vals[84] = v84
	v85 := (v82 * v84) & 0xffffffffff
	vals[85] = v85
	v86 := (v81 + v85) & 0xffffffffff
	vals[86] = v86
	v90 := (v60 << 4) & 0xffffffffff
	vals[90] = v90
	v92 := (v90 + 0x9) & 0xffffffffff
	vals[92] = v92
	v93 := (v90 * v92) & 0xffffffffff
	vals[93] = v93
	v94 := (v88 + v93) & 0xffffffffff
	vals[94] = v94
	v98 := (v60 << 5) & 0xffffffffff
	vals[98] = v98
	v100 := (v98 + 0xb) & 0xffffffffff
	vals[100] = v100
	v101 := (v98 * v100) & 0xffffffffff
	vals[101] = v101
	v102 := (v96 + v101) & 0xffffffffff
	vals[102] = v102
	v105 := (v60 << 6) & 0xffffffffff
	vals[105] = v105
	v107 := (v105 + 0xd) & 0xffffffffff
	vals[107] = v107
	v108 := (v105 * v107) & 0xffffffffff
	vals[108] = v108
	v109 := (v104 + v108) & 0xffffffffff
	vals[109] = v109
	v113 := (v60 << 7) & 0xffffffffff
	vals[113] = v113
	v115 := (v113 + 0xf) & 0xffffffffff
	vals[115] = v115
	v116 := (v113 * v115) & 0xffffffffff
	vals[116] = v116
	v117 := (v111 + v116) & 0xffffffffff
	vals[117] = v117
	v120 := (v58 * v58) & 0xffffffff
	vals[120] = v120
	v121 := (v58 << 4) & 0xffff
	vals[121] = v121
	v122 := (v120 + v121) & 0xffffffff
	vals[122] = v122
	v124 := (v44 + 0x1) & 0x3f
	vals[124] = v124
	v125 := (v122 * v124) & 0xffffffff
	vals[125] = v125
	v126 := (v53 ^ v66)
	vals[126] = v126
	v127 := (v126 ^ v73)
	vals[127] = v127
	v128 := (v127 ^ v81)
	vals[128] = v128
	v129 := (v128 ^ v88)
	vals[129] = v129
	v130 := (v129 ^ v96)
	vals[130] = v130
	v131 := (v130 ^ v104)
	vals[131] = v131
	v132 := (v131 ^ v111)
	vals[132] = v132
	v134 := v132 & 0xffffffff
	vals[134] = v134
	v135 := (v125 ^ v134)
	vals[135] = v135
	v136 := (v119 + v135) & 0xffffffff
	vals[136] = v136
	v142 := (v138 + 0x1) & 0xffffff
	vals[142] = v142
	v147 := (v144 + 0x1) & 0xffffff
	vals[147] = v147
	v152 := (v149 + 0x1) & 0xffffff
	vals[152] = v152
	v157 := (v154 + 0x1) & 0xffffff
	vals[157] = v157
	v162 := (v159 + 0x1) & 0xffffff
	vals[162] = v162
	v167 := (v164 + 0x1) & 0xffffff
	vals[167] = v167
	v171 := (v169 + 0x1) & 0xffffff
	vals[171] = v171
	v174 := (v173 + 0x1) & 0xffffff
	vals[174] = v174
	v177 := (v176 + 0xc) & 0xffffff
	vals[177] = v177
	v180 := (v179 + v13) & 0xffffff
	vals[180] = v180
	v183 := (v182 + 0x1) & 0xffffff
	vals[183] = v183
	v186 := (v185 + v47) & 0xffffff
	vals[186] = v186
	v189 := (v188 + v21) & 0xffffff
	vals[189] = v189
	switch v1 {
	case 0x0:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x0
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[20] = 0x0
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x0
		}
		vals[24] = v24
		vals[30] = 0x0
		vals[31] = 0x0
		vals[32] = 0x0
		vals[33] = 0x0
		vals[34] = 0x0
		vals[35] = 0x1
		v41 := v40
		vals[41] = v41
		v52 := v51
		vals[52] = v52
		vals[54] = 0x0
		v65 := v53
		vals[65] = v65
		v72 := v66
		vals[72] = v72
		v80 := v73
		vals[80] = v80
		v87 := v81
		vals[87] = v87
		v95 := v88
		vals[95] = v95
		v103 := v96
		vals[103] = v103
		v110 := v104
		vals[110] = v110
		v118 := v111
		vals[118] = v118
		v137 := v119
		vals[137] = v137
		vals[139] = 0x1
		vals[140] = 0x1
		v143 := v142
		vals[143] = v143
		vals[145] = 0x0
		vals[146] = 0x0
		v148 := v144
		vals[148] = v148
		vals[150] = 0x0
		vals[151] = 0x0
		v153 := v149
		vals[153] = v153
		vals[155] = 0x0
		vals[156] = 0x0
		v158 := v154
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		v175 := v173
		vals[175] = v175
		v178 := v176
		vals[178] = v178
		v181 := v179
		vals[181] = v181
		v184 := v182
		vals[184] = v184
		v187 := v185
		vals[187] = v187
		v190 := v188
		vals[190] = v190
		vals[191] = 0x0
	case 0x1:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x1
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[20] = 0x0
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x1
		}
		vals[24] = v24
		vals[30] = 0x1
		vals[31] = 0x1
		vals[32] = 0x1
		vals[33] = 0x1
		vals[34] = 0x2
		vals[35] = 0x2
		vals[41] = 0xc
		v52 := v51
		vals[52] = v52
		vals[54] = 0x0
		v65 := v53
		vals[65] = v65
		v72 := v66
		vals[72] = v72
		v80 := v73
		vals[80] = v80
		v87 := v81
		vals[87] = v87
		v95 := v88
		vals[95] = v95
		v103 := v96
		vals[103] = v103
		v110 := v104
		vals[110] = v110
		v118 := v111
		vals[118] = v118
		v137 := v119
		vals[137] = v137
		vals[139] = 0x0
		vals[140] = 0x0
		v143 := v138
		vals[143] = v143
		vals[145] = 0x1
		vals[146] = 0x1
		v148 := v147
		vals[148] = v148
		vals[150] = 0x0
		vals[151] = 0x0
		v153 := v149
		vals[153] = v153
		vals[155] = 0x0
		vals[156] = 0x0
		v158 := v154
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		v175 := v174
		vals[175] = v175
		v178 := v177
		vals[178] = v178
		v181 := v180
		vals[181] = v181
		v184 := v182
		vals[184] = v184
		v187 := v185
		vals[187] = v187
		v190 := v188
		vals[190] = v190
		vals[191] = 0x0
	case 0x2:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x2
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[20] = 0x0
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x2
		}
		vals[24] = v24
		vals[30] = 0x2
		vals[31] = 0x2
		vals[32] = 0x2
		v33 := v17
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v41 := v40
		vals[41] = v41
		v52 := v51
		vals[52] = v52
		vals[54] = 0x1
		v65 := v64
		vals[65] = v65
		v72 := v71
		vals[72] = v72
		v80 := v79
		vals[80] = v80
		v87 := v86
		vals[87] = v87
		v95 := v94
		vals[95] = v95
		v103 := v102
		vals[103] = v103
		v110 := v109
		vals[110] = v110
		v118 := v117
		vals[118] = v118
		v137 := v136
		vals[137] = v137
		var v139 uint64
		if v35 == 0x1 {
			v139 = 1
		}
		vals[139] = v139
		vals[140] = 0x0
		v143 := v138
		vals[143] = v143
		var v145 uint64
		if v35 == 0x2 {
			v145 = 1
		}
		vals[145] = v145
		vals[146] = 0x0
		v148 := v144
		vals[148] = v148
		var v150 uint64
		if v35 == 0x3 {
			v150 = 1
		}
		vals[150] = v150
		v151 := v150
		vals[151] = v151
		var v153 uint64
		if v151 != 0 {
			v153 = v152
		} else {
			v153 = v149
		}
		vals[153] = v153
		var v155 uint64
		if v35 == 0x4 {
			v155 = 1
		}
		vals[155] = v155
		vals[156] = 0x0
		v158 := v154
		vals[158] = v158
		var v160 uint64
		if v35 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		var v165 uint64
		if v35 == 0x6 {
			v165 = 1
		}
		vals[165] = v165
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		v175 := v173
		vals[175] = v175
		v178 := v176
		vals[178] = v178
		v181 := v179
		vals[181] = v181
		v184 := v182
		vals[184] = v184
		v187 := v185
		vals[187] = v187
		v190 := v188
		vals[190] = v190
		vals[191] = 0x0
	case 0x3:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x3
		}
		vals[17] = v17
		vals[18] = 0x1
		vals[20] = 0x0
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x3
		}
		vals[24] = v24
		vals[30] = 0x3
		vals[31] = 0x3
		vals[32] = 0x4
		vals[33] = 0x4
		vals[34] = 0x4
		vals[35] = 0x4
		v41 := v40
		vals[41] = v41
		v52 := v47
		vals[52] = v52
		vals[54] = 0x0
		v65 := v53
		vals[65] = v65
		v72 := v66
		vals[72] = v72
		v80 := v73
		vals[80] = v80
		v87 := v81
		vals[87] = v87
		v95 := v88
		vals[95] = v95
		v103 := v96
		vals[103] = v103
		v110 := v104
		vals[110] = v110
		v118 := v111
		vals[118] = v118
		v137 := v119
		vals[137] = v137
		vals[139] = 0x0
		vals[140] = 0x0
		v143 := v138
		vals[143] = v143
		vals[145] = 0x0
		vals[146] = 0x0
		v148 := v144
		vals[148] = v148
		vals[150] = 0x0
		vals[151] = 0x0
		v153 := v149
		vals[153] = v153
		vals[155] = 0x1
		vals[156] = 0x1
		v158 := v157
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x0
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		v175 := v173
		vals[175] = v175
		v178 := v176
		vals[178] = v178
		v181 := v179
		vals[181] = v181
		v184 := v183
		vals[184] = v184
		v187 := v186
		vals[187] = v187
		v190 := v189
		vals[190] = v190
		vals[191] = 0x0
	case 0x4:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x4
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[20] = 0x1
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x4
		}
		vals[24] = v24
		vals[30] = 0x4
		v31 := v24
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v33 := v32
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v41 := v40
		vals[41] = v41
		v52 := v51
		vals[52] = v52
		vals[54] = 0x1
		v65 := v64
		vals[65] = v65
		v72 := v71
		vals[72] = v72
		v80 := v79
		vals[80] = v80
		v87 := v86
		vals[87] = v87
		v95 := v94
		vals[95] = v95
		v103 := v102
		vals[103] = v103
		v110 := v109
		vals[110] = v110
		v118 := v117
		vals[118] = v118
		v137 := v136
		vals[137] = v137
		var v139 uint64
		if v35 == 0x1 {
			v139 = 1
		}
		vals[139] = v139
		vals[140] = 0x0
		v143 := v138
		vals[143] = v143
		var v145 uint64
		if v35 == 0x2 {
			v145 = 1
		}
		vals[145] = v145
		vals[146] = 0x0
		v148 := v144
		vals[148] = v148
		var v150 uint64
		if v35 == 0x3 {
			v150 = 1
		}
		vals[150] = v150
		vals[151] = 0x0
		v153 := v149
		vals[153] = v153
		var v155 uint64
		if v35 == 0x4 {
			v155 = 1
		}
		vals[155] = v155
		vals[156] = 0x0
		v158 := v154
		vals[158] = v158
		var v160 uint64
		if v35 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		v161 := v160
		vals[161] = v161
		var v163 uint64
		if v161 != 0 {
			v163 = v162
		} else {
			v163 = v159
		}
		vals[163] = v163
		var v165 uint64
		if v35 == 0x6 {
			v165 = 1
		}
		vals[165] = v165
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		v175 := v173
		vals[175] = v175
		v178 := v176
		vals[178] = v178
		v181 := v179
		vals[181] = v181
		v184 := v182
		vals[184] = v184
		v187 := v185
		vals[187] = v187
		v190 := v188
		vals[190] = v190
		vals[191] = 0x0
	case 0x5:
		vals[3] = 0x1
		v6 := v5
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x5
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[20] = 0x0
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x5
		}
		vals[24] = v24
		v30 := v29
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		v32 := v31
		vals[32] = v32
		v33 := v32
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v41 := v40
		vals[41] = v41
		v52 := v51
		vals[52] = v52
		vals[54] = 0x0
		v65 := v53
		vals[65] = v65
		v72 := v66
		vals[72] = v72
		v80 := v73
		vals[80] = v80
		v87 := v81
		vals[87] = v87
		v95 := v88
		vals[95] = v95
		v103 := v96
		vals[103] = v103
		v110 := v104
		vals[110] = v110
		v118 := v111
		vals[118] = v118
		v137 := v119
		vals[137] = v137
		var v139 uint64
		if v35 == 0x1 {
			v139 = 1
		}
		vals[139] = v139
		vals[140] = 0x0
		v143 := v138
		vals[143] = v143
		var v145 uint64
		if v35 == 0x2 {
			v145 = 1
		}
		vals[145] = v145
		vals[146] = 0x0
		v148 := v144
		vals[148] = v148
		var v150 uint64
		if v35 == 0x3 {
			v150 = 1
		}
		vals[150] = v150
		vals[151] = 0x0
		v153 := v149
		vals[153] = v153
		var v155 uint64
		if v35 == 0x4 {
			v155 = 1
		}
		vals[155] = v155
		vals[156] = 0x0
		v158 := v154
		vals[158] = v158
		var v160 uint64
		if v35 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		var v165 uint64
		if v35 == 0x6 {
			v165 = 1
		}
		vals[165] = v165
		v166 := v165
		vals[166] = v166
		var v168 uint64
		if v166 != 0 {
			v168 = v167
		} else {
			v168 = v164
		}
		vals[168] = v168
		v170 := v139
		vals[170] = v170
		var v172 uint64
		if v170 != 0 {
			v172 = v171
		} else {
			v172 = v169
		}
		vals[172] = v172
		v175 := v173
		vals[175] = v175
		v178 := v176
		vals[178] = v178
		v181 := v179
		vals[181] = v181
		v184 := v182
		vals[184] = v184
		v187 := v185
		vals[187] = v187
		v190 := v188
		vals[190] = v190
		vals[191] = 0x0
	case 0x6:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = 0x6
		}
		vals[17] = v17
		vals[18] = 0x0
		vals[20] = 0x0
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = 0x6
		}
		vals[24] = v24
		vals[30] = 0x6
		vals[31] = 0x6
		vals[32] = 0x6
		vals[33] = 0x6
		vals[34] = 0x6
		vals[35] = 0x6
		v41 := v40
		vals[41] = v41
		v52 := v51
		vals[52] = v52
		vals[54] = 0x0
		v65 := v53
		vals[65] = v65
		v72 := v66
		vals[72] = v72
		v80 := v73
		vals[80] = v80
		v87 := v81
		vals[87] = v87
		v95 := v88
		vals[95] = v95
		v103 := v96
		vals[103] = v103
		v110 := v104
		vals[110] = v110
		v118 := v111
		vals[118] = v118
		v137 := v119
		vals[137] = v137
		vals[139] = 0x0
		vals[140] = 0x0
		v143 := v138
		vals[143] = v143
		vals[145] = 0x0
		vals[146] = 0x0
		v148 := v144
		vals[148] = v148
		vals[150] = 0x0
		vals[151] = 0x0
		v153 := v149
		vals[153] = v153
		vals[155] = 0x0
		vals[156] = 0x0
		v158 := v154
		vals[158] = v158
		vals[160] = 0x0
		vals[161] = 0x0
		v163 := v159
		vals[163] = v163
		vals[165] = 0x1
		vals[166] = 0x0
		v168 := v164
		vals[168] = v168
		vals[170] = 0x0
		v172 := v169
		vals[172] = v172
		v175 := v173
		vals[175] = v175
		v178 := v176
		vals[178] = v178
		v181 := v179
		vals[181] = v181
		v184 := v182
		vals[184] = v184
		v187 := v185
		vals[187] = v187
		v190 := v188
		vals[190] = v190
		vals[191] = 0x1
	default:
		var v3 uint64
		if v1 == 0x5 {
			v3 = 1
		}
		vals[3] = v3
		var v6 uint64
		if v3 != 0 {
			v6 = v5
		} else {
			v6 = v0
		}
		vals[6] = v6
		var v8 uint64
		if v1 == 0x0 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v1 == 0x1 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v1 == 0x2 {
			v12 = 1
		}
		vals[12] = v12
		var v17 uint64
		if v15 != 0 {
			v17 = 0x3
		} else {
			v17 = v1
		}
		vals[17] = v17
		var v18 uint64
		if v1 == 0x3 {
			v18 = 1
		}
		vals[18] = v18
		var v20 uint64
		if v1 == 0x4 {
			v20 = 1
		}
		vals[20] = v20
		var v24 uint64
		if v23 != 0 {
			v24 = 0x5
		} else {
			v24 = v1
		}
		vals[24] = v24
		var v30 uint64
		if v3 != 0 {
			v30 = v29
		} else {
			v30 = v1
		}
		vals[30] = v30
		var v31 uint64
		if v20 != 0 {
			v31 = v24
		} else {
			v31 = v30
		}
		vals[31] = v31
		var v32 uint64
		if v18 != 0 {
			v32 = 0x4
		} else {
			v32 = v31
		}
		vals[32] = v32
		var v33 uint64
		if v12 != 0 {
			v33 = v17
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v34 uint64
		if v10 != 0 {
			v34 = 0x2
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v35 uint64
		if v8 != 0 {
			v35 = 0x1
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v41 uint64
		if v10 != 0 {
			v41 = 0xc
		} else {
			v41 = v40
		}
		vals[41] = v41
		var v52 uint64
		if v18 != 0 {
			v52 = v47
		} else {
			v52 = v51
		}
		vals[52] = v52
		v54 := (v12 | v20)
		vals[54] = v54
		var v65 uint64
		if v54 != 0 {
			v65 = v64
		} else {
			v65 = v53
		}
		vals[65] = v65
		var v72 uint64
		if v54 != 0 {
			v72 = v71
		} else {
			v72 = v66
		}
		vals[72] = v72
		var v80 uint64
		if v54 != 0 {
			v80 = v79
		} else {
			v80 = v73
		}
		vals[80] = v80
		var v87 uint64
		if v54 != 0 {
			v87 = v86
		} else {
			v87 = v81
		}
		vals[87] = v87
		var v95 uint64
		if v54 != 0 {
			v95 = v94
		} else {
			v95 = v88
		}
		vals[95] = v95
		var v103 uint64
		if v54 != 0 {
			v103 = v102
		} else {
			v103 = v96
		}
		vals[103] = v103
		var v110 uint64
		if v54 != 0 {
			v110 = v109
		} else {
			v110 = v104
		}
		vals[110] = v110
		var v118 uint64
		if v54 != 0 {
			v118 = v117
		} else {
			v118 = v111
		}
		vals[118] = v118
		var v137 uint64
		if v54 != 0 {
			v137 = v136
		} else {
			v137 = v119
		}
		vals[137] = v137
		var v139 uint64
		if v35 == 0x1 {
			v139 = 1
		}
		vals[139] = v139
		v140 := v8 & v139
		vals[140] = v140
		var v143 uint64
		if v140 != 0 {
			v143 = v142
		} else {
			v143 = v138
		}
		vals[143] = v143
		var v145 uint64
		if v35 == 0x2 {
			v145 = 1
		}
		vals[145] = v145
		v146 := v10 & v145
		vals[146] = v146
		var v148 uint64
		if v146 != 0 {
			v148 = v147
		} else {
			v148 = v144
		}
		vals[148] = v148
		var v150 uint64
		if v35 == 0x3 {
			v150 = 1
		}
		vals[150] = v150
		v151 := v12 & v150
		vals[151] = v151
		var v153 uint64
		if v151 != 0 {
			v153 = v152
		} else {
			v153 = v149
		}
		vals[153] = v153
		var v155 uint64
		if v35 == 0x4 {
			v155 = 1
		}
		vals[155] = v155
		v156 := v18 & v155
		vals[156] = v156
		var v158 uint64
		if v156 != 0 {
			v158 = v157
		} else {
			v158 = v154
		}
		vals[158] = v158
		var v160 uint64
		if v35 == 0x5 {
			v160 = 1
		}
		vals[160] = v160
		v161 := v20 & v160
		vals[161] = v161
		var v163 uint64
		if v161 != 0 {
			v163 = v162
		} else {
			v163 = v159
		}
		vals[163] = v163
		var v165 uint64
		if v35 == 0x6 {
			v165 = 1
		}
		vals[165] = v165
		v166 := v3 & v165
		vals[166] = v166
		var v168 uint64
		if v166 != 0 {
			v168 = v167
		} else {
			v168 = v164
		}
		vals[168] = v168
		v170 := v3 & v139
		vals[170] = v170
		var v172 uint64
		if v170 != 0 {
			v172 = v171
		} else {
			v172 = v169
		}
		vals[172] = v172
		var v175 uint64
		if v10 != 0 {
			v175 = v174
		} else {
			v175 = v173
		}
		vals[175] = v175
		var v178 uint64
		if v10 != 0 {
			v178 = v177
		} else {
			v178 = v176
		}
		vals[178] = v178
		var v181 uint64
		if v10 != 0 {
			v181 = v180
		} else {
			v181 = v179
		}
		vals[181] = v181
		var v184 uint64
		if v18 != 0 {
			v184 = v183
		} else {
			v184 = v182
		}
		vals[184] = v184
		var v187 uint64
		if v18 != 0 {
			v187 = v186
		} else {
			v187 = v185
		}
		vals[187] = v187
		var v190 uint64
		if v18 != 0 {
			v190 = v189
		} else {
			v190 = v188
		}
		vals[190] = v190
		var v191 uint64
		if v1 == 0x6 {
			v191 = 1
		}
		vals[191] = v191
	}
	done := vals[191] != 0
	if vals[3] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[119]
		}
	}
	l0 := vals[6] & 0x7ff
	l1 := vals[35] & 0x7
	l2 := vals[41] & 0xf
	l3 := vals[52] & 0x7f
	l4 := vals[65] & 0xffffffffff
	l5 := vals[72] & 0xffffffffff
	l6 := vals[80] & 0xffffffffff
	l7 := vals[87] & 0xffffffffff
	l8 := vals[95] & 0xffffffffff
	l9 := vals[103] & 0xffffffffff
	l10 := vals[110] & 0xffffffffff
	l11 := vals[118] & 0xffffffffff
	l12 := vals[137] & 0xffffffff
	l13 := vals[143] & 0xffffff
	l14 := vals[148] & 0xffffff
	l15 := vals[153] & 0xffffff
	l16 := vals[158] & 0xffffff
	l17 := vals[163] & 0xffffff
	l18 := vals[168] & 0xffffff
	l19 := vals[172] & 0xffffff
	l20 := vals[175] & 0xffffff
	l21 := vals[178] & 0xffffff
	l22 := vals[181] & 0xffffff
	l23 := vals[184] & 0xffffff
	l24 := vals[187] & 0xffffff
	l25 := vals[190] & 0xffffff
	vals[0] = l0
	vals[1] = l1
	vals[13] = l2
	vals[21] = l3
	vals[53] = l4
	vals[66] = l5
	vals[73] = l6
	vals[81] = l7
	vals[88] = l8
	vals[96] = l9
	vals[104] = l10
	vals[111] = l11
	vals[119] = l12
	vals[138] = l13
	vals[144] = l14
	vals[149] = l15
	vals[154] = l16
	vals[159] = l17
	vals[164] = l18
	vals[169] = l19
	vals[173] = l20
	vals[176] = l21
	vals[179] = l22
	vals[182] = l23
	vals[185] = l24
	vals[188] = l25
	return cycles + 1, done
}

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
	rtl.RegisterNative("aebf8bea70d0f8729adab6b19971503c118b4703e98c0175fcaa7f6c0d8e16fc", "cjpeg", step_cjpeg)
	rtl.RegisterNative("8f5ebf5b5eeee4e6071e3e77b771c75e327ab1f696b6bedc40768f41d35043d3", "cjpeg_ins", step_cjpeg_ins)
	rtl.RegisterNative("951d00830e8e5a63c3e6c232f1bf9dff6d17582aea805c925f360522bc41b0af", "cjpeg_pruned", step_cjpeg_pruned)
	rtl.RegisterNative("123f48dc5a8cc18159ab06fdbc824b86390e6c50aa5d1232492db096451c35da", "cjpeg_cone", step_cjpeg_cone)
	rtl.RegisterNative("fb3e3f30aa05cf96f7cb29e949c16782c5e468c9c1713fbf3a0004555a6e3fcc", "cjpeg_slice_all", step_cjpeg_slice_all)
	rtl.RegisterNative("8b952a68593d91d14c2895f28d30da38aaa0a8c9b1e82c3b159b04b904283936", "cjpeg_slice_t42", step_cjpeg_slice_t42)
}
