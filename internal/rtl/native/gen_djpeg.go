// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_djpeg(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[199]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v11 := vals[11]
	v28 := vals[28]
	v40 := vals[40]
	v78 := vals[78]
	v88 := vals[88]
	v100 := vals[100]
	v112 := vals[112]
	v124 := vals[124]
	v136 := vals[136]
	v147 := vals[147]
	v159 := vals[159]
	v171 := vals[171]
	v183 := vals[183]
	v196 := vals[196]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x3f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		var v42 uint64
		if v40 != 0x0 {
			v42 = 1
		}
		v44 := (v40 - 0x1) & 0xf
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v40
		}
		switch v10 {
		case 0x0:
			v21 := v11
			v22 := v21
			v34 := v33
			v46 := v45
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			n0 := v68
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = 0x1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		case 0x1:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v7 := (v3 >> 6)
			v9 := v7 & 0xfffff
			v22 := v9
			v34 := v33
			v46 := v45
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			n0 := v68
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = 0x2
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		case 0x2:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v5 := v3 & 0x3f
			v13 := v11 & 0x1
			v15 := (v13 + 0x1) & 0x3
			var v16 uint64
			if sh := v15; sh < 64 {
				v16 = (v11 >> sh) & 0xfffff
			}
			var v24 uint64
			if v11 == 0x0 {
				v24 = 1
			}
			v26 := (v5 >> 1)
			v21 := v16
			v22 := v21
			v27 := v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v46 := v45
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = 0x2
			}
			v61 := v60
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		case 0x3:
			var v37 uint64
			if v28 == 0x0 {
				v37 = 1
			}
			v21 := v11
			v22 := v21
			v34 := v33
			v38 := v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = 0x3
			}
			v59 := v58
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		case 0x4:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xfffff
			var v47 uint64
			if v40 == 0x0 {
				v47 = 1
			}
			v70 := v9
			v72 := (v70 << 0) & 0xffffffffff
			v73 := (v70 >> 0)
			v74 := (v72 | v73)
			v76 := (v74 + 0x1) & 0xffffffffff
			v77 := (v74 * v76) & 0xffffffffff
			v79 := (v78 + v77) & 0xffffffffff
			v81 := (v70 << 1) & 0xffffffffff
			v83 := (v70 >> 39)
			v84 := (v81 | v83)
			v86 := (v84 + 0x3) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v78 ^ v88)
			v93 := (v70 << 2) & 0xffffffffff
			v95 := (v70 >> 38)
			v96 := (v93 | v95)
			v98 := (v96 + 0x5) & 0xffffffffff
			v99 := (v96 * v98) & 0xffffffffff
			v101 := (v100 + v99) & 0xffffffffff
			v103 := (v91 ^ v100)
			v105 := (v70 << 3) & 0xffffffffff
			v107 := (v70 >> 37)
			v108 := (v105 | v107)
			v110 := (v108 + 0x7) & 0xffffffffff
			v111 := (v108 * v110) & 0xffffffffff
			v113 := (v112 + v111) & 0xffffffffff
			v115 := (v103 ^ v112)
			v117 := (v70 << 4) & 0xffffffffff
			v119 := (v70 >> 36)
			v120 := (v117 | v119)
			v122 := (v120 + 0x9) & 0xffffffffff
			v123 := (v120 * v122) & 0xffffffffff
			v125 := (v124 + v123) & 0xffffffffff
			v127 := (v115 ^ v124)
			v129 := (v70 << 5) & 0xffffffffff
			v131 := (v70 >> 35)
			v132 := (v129 | v131)
			v134 := (v132 + 0xb) & 0xffffffffff
			v135 := (v132 * v134) & 0xffffffffff
			v137 := (v136 + v135) & 0xffffffffff
			v139 := (v127 ^ v136)
			v140 := (v70 << 6) & 0xffffffffff
			v142 := (v70 >> 34)
			v143 := (v140 | v142)
			v145 := (v143 + 0xd) & 0xffffffffff
			v146 := (v143 * v145) & 0xffffffffff
			v148 := (v147 + v146) & 0xffffffffff
			v150 := (v139 ^ v147)
			v152 := (v70 << 7) & 0xffffffffff
			v154 := (v70 >> 33)
			v155 := (v152 | v154)
			v157 := (v155 + 0xf) & 0xffffffffff
			v158 := (v155 * v157) & 0xffffffffff
			v160 := (v159 + v158) & 0xffffffffff
			v162 := (v150 ^ v159)
			v164 := (v70 << 8) & 0xffffffffff
			v166 := (v70 >> 32)
			v167 := (v164 | v166)
			v169 := (v167 + 0x11) & 0xffffffffff
			v170 := (v167 * v169) & 0xffffffffff
			v172 := (v171 + v170) & 0xffffffffff
			v174 := (v162 ^ v171)
			v176 := (v70 << 9) & 0xffffffffff
			v178 := (v70 >> 31)
			v179 := (v176 | v178)
			v181 := (v179 + 0x13) & 0xffffffffff
			v182 := (v179 * v181) & 0xffffffffff
			v184 := (v183 + v182) & 0xffffffffff
			v186 := (v174 ^ v183)
			v187 := (v5 * v5) & 0xffffffff
			v189 := v9 & 0xffff
			v190 := (v187 + v189) & 0xffffffff
			v191 := (v190 * v190) & 0xffffffff
			v192 := (v191 >> 3)
			v194 := v186 & 0xffffffff
			v195 := (v192 ^ v194)
			v197 := (v196 + v195) & 0xffffffff
			v21 := v11
			v22 := v21
			v34 := v33
			v46 := v45
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = 0x4
			}
			v57 := v54
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v79
			v90 := v89
			v102 := v101
			v114 := v113
			v126 := v125
			v138 := v137
			v149 := v148
			v161 := v160
			v173 := v172
			v185 := v184
			v198 := v197
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		case 0x5:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v48 uint64
			if v2 <= v0 {
				v48 = 1
			}
			var v50 uint64
			if v48 != 0 {
				v50 = 0x6
			} else {
				v50 = 0x1
			}
			v67 := (v0 + 0x1) & 0x7ff
			v21 := v11
			v22 := v21
			v34 := v33
			v46 := v45
			v53 := v50
			v57 := v53
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v67
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v196
			}
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		case 0x6:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xfffff
			v13 := v11 & 0x1
			v15 := (v13 + 0x1) & 0x3
			var v16 uint64
			if sh := v15; sh < 64 {
				v16 = (v11 >> sh) & 0xfffff
			}
			var v24 uint64
			if v11 == 0x0 {
				v24 = 1
			}
			v26 := (v5 >> 1)
			var v37 uint64
			if v28 == 0x0 {
				v37 = 1
			}
			var v47 uint64
			if v40 == 0x0 {
				v47 = 1
			}
			var v48 uint64
			if v2 <= v0 {
				v48 = 1
			}
			var v50 uint64
			if v48 != 0 {
				v50 = 0x6
			} else {
				v50 = 0x1
			}
			v67 := (v0 + 0x1) & 0x7ff
			v70 := v9
			v72 := (v70 << 0) & 0xffffffffff
			v73 := (v70 >> 0)
			v74 := (v72 | v73)
			v76 := (v74 + 0x1) & 0xffffffffff
			v77 := (v74 * v76) & 0xffffffffff
			v79 := (v78 + v77) & 0xffffffffff
			v81 := (v70 << 1) & 0xffffffffff
			v83 := (v70 >> 39)
			v84 := (v81 | v83)
			v86 := (v84 + 0x3) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v78 ^ v88)
			v93 := (v70 << 2) & 0xffffffffff
			v95 := (v70 >> 38)
			v96 := (v93 | v95)
			v98 := (v96 + 0x5) & 0xffffffffff
			v99 := (v96 * v98) & 0xffffffffff
			v101 := (v100 + v99) & 0xffffffffff
			v103 := (v91 ^ v100)
			v105 := (v70 << 3) & 0xffffffffff
			v107 := (v70 >> 37)
			v108 := (v105 | v107)
			v110 := (v108 + 0x7) & 0xffffffffff
			v111 := (v108 * v110) & 0xffffffffff
			v113 := (v112 + v111) & 0xffffffffff
			v115 := (v103 ^ v112)
			v117 := (v70 << 4) & 0xffffffffff
			v119 := (v70 >> 36)
			v120 := (v117 | v119)
			v122 := (v120 + 0x9) & 0xffffffffff
			v123 := (v120 * v122) & 0xffffffffff
			v125 := (v124 + v123) & 0xffffffffff
			v127 := (v115 ^ v124)
			v129 := (v70 << 5) & 0xffffffffff
			v131 := (v70 >> 35)
			v132 := (v129 | v131)
			v134 := (v132 + 0xb) & 0xffffffffff
			v135 := (v132 * v134) & 0xffffffffff
			v137 := (v136 + v135) & 0xffffffffff
			v139 := (v127 ^ v136)
			v140 := (v70 << 6) & 0xffffffffff
			v142 := (v70 >> 34)
			v143 := (v140 | v142)
			v145 := (v143 + 0xd) & 0xffffffffff
			v146 := (v143 * v145) & 0xffffffffff
			v148 := (v147 + v146) & 0xffffffffff
			v150 := (v139 ^ v147)
			v152 := (v70 << 7) & 0xffffffffff
			v154 := (v70 >> 33)
			v155 := (v152 | v154)
			v157 := (v155 + 0xf) & 0xffffffffff
			v158 := (v155 * v157) & 0xffffffffff
			v160 := (v159 + v158) & 0xffffffffff
			v162 := (v150 ^ v159)
			v164 := (v70 << 8) & 0xffffffffff
			v166 := (v70 >> 32)
			v167 := (v164 | v166)
			v169 := (v167 + 0x11) & 0xffffffffff
			v170 := (v167 * v169) & 0xffffffffff
			v172 := (v171 + v170) & 0xffffffffff
			v174 := (v162 ^ v171)
			v176 := (v70 << 9) & 0xffffffffff
			v178 := (v70 >> 31)
			v179 := (v176 | v178)
			v181 := (v179 + 0x13) & 0xffffffffff
			v182 := (v179 * v181) & 0xffffffffff
			v184 := (v183 + v182) & 0xffffffffff
			v186 := (v174 ^ v183)
			v187 := (v5 * v5) & 0xffffffff
			v189 := v9 & 0xffff
			v190 := (v187 + v189) & 0xffffffff
			v191 := (v190 * v190) & 0xffffffff
			v192 := (v191 >> 3)
			v194 := v186 & 0xffffffff
			v195 := (v192 ^ v194)
			v197 := (v196 + v195) & 0xffffffff
			var v18 uint64
			if v10 == 0x1 {
				v18 = 1
			}
			var v20 uint64
			if v10 == 0x2 {
				v20 = 1
			}
			var v21 uint64
			if v20 != 0 {
				v21 = v16
			} else {
				v21 = v11
			}
			var v22 uint64
			if v18 != 0 {
				v22 = v9
			} else {
				v22 = v21
			}
			v27 := v20 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v36 uint64
			if v10 == 0x3 {
				v36 = 1
			}
			v38 := v36 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v52 uint64
			if v10 == 0x5 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = v50
			} else {
				v53 = v10
			}
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = v10
			}
			var v56 uint64
			if v10 == 0x4 {
				v56 = 1
			}
			var v57 uint64
			if v56 != 0 {
				v57 = v54
			} else {
				v57 = v53
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = v10
			}
			var v59 uint64
			if v36 != 0 {
				v59 = v58
			} else {
				v59 = v57
			}
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = v10
			}
			var v61 uint64
			if v20 != 0 {
				v61 = v60
			} else {
				v61 = v59
			}
			var v62 uint64
			if v18 != 0 {
				v62 = 0x2
			} else {
				v62 = v61
			}
			var v64 uint64
			if v10 == 0x0 {
				v64 = 1
			}
			var v65 uint64
			if v64 != 0 {
				v65 = 0x1
			} else {
				v65 = v62
			}
			var v68 uint64
			if v52 != 0 {
				v68 = v67
			} else {
				v68 = v0
			}
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			var v90 uint64
			if v56 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v102 uint64
			if v56 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v114 uint64
			if v56 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v126 uint64
			if v56 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v138 uint64
			if v56 != 0 {
				v138 = v137
			} else {
				v138 = v136
			}
			var v149 uint64
			if v56 != 0 {
				v149 = v148
			} else {
				v149 = v147
			}
			var v161 uint64
			if v56 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v173 uint64
			if v56 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v185 uint64
			if v56 != 0 {
				v185 = v184
			} else {
				v185 = v183
			}
			var v198 uint64
			if v56 != 0 {
				v198 = v197
			} else {
				v198 = v196
			}
			var v199 uint64
			if v10 == 0x6 {
				v199 = 1
			}
			if v199 != 0 {
				break loop
			}
			if v52 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v196
				}
			}
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
		}
	}
	vals[0] = v0
	vals[10] = v10
	vals[11] = v11
	vals[28] = v28
	vals[40] = v40
	vals[78] = v78
	vals[88] = v88
	vals[100] = v100
	vals[112] = v112
	vals[124] = v124
	vals[136] = v136
	vals[147] = v147
	vals[159] = v159
	vals[171] = v171
	vals[183] = v183
	vals[196] = v196
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x7ff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x3ffffff
	}
	vals[3] = v3
	v5 := v3 & 0x3f
	vals[5] = v5
	v7 := (v3 >> 6)
	vals[7] = v7
	v9 := v7 & 0xfffff
	vals[9] = v9
	v13 := v11 & 0x1
	vals[13] = v13
	v15 := (v13 + 0x1) & 0x3
	vals[15] = v15
	var v16 uint64
	if sh := v15; sh < 64 {
		v16 = (v11 >> sh) & 0xfffff
	}
	vals[16] = v16
	var v24 uint64
	if v11 == 0x0 {
		v24 = 1
	}
	vals[24] = v24
	v26 := (v5 >> 1)
	vals[26] = v26
	var v30 uint64
	if v28 != 0x0 {
		v30 = 1
	}
	vals[30] = v30
	v32 := (v28 - 0x1) & 0x3f
	vals[32] = v32
	var v33 uint64
	if v30 != 0 {
		v33 = v32
	} else {
		v33 = v28
	}
	vals[33] = v33
	var v37 uint64
	if v28 == 0x0 {
		v37 = 1
	}
	vals[37] = v37
	var v42 uint64
	if v40 != 0x0 {
		v42 = 1
	}
	vals[42] = v42
	v44 := (v40 - 0x1) & 0xf
	vals[44] = v44
	var v45 uint64
	if v42 != 0 {
		v45 = v44
	} else {
		v45 = v40
	}
	vals[45] = v45
	var v47 uint64
	if v40 == 0x0 {
		v47 = 1
	}
	vals[47] = v47
	var v48 uint64
	if v2 <= v0 {
		v48 = 1
	}
	vals[48] = v48
	var v50 uint64
	if v48 != 0 {
		v50 = 0x6
	} else {
		v50 = 0x1
	}
	vals[50] = v50
	v67 := (v0 + 0x1) & 0x7ff
	vals[67] = v67
	v70 := v9
	vals[70] = v70
	v72 := (v70 << 0) & 0xffffffffff
	vals[72] = v72
	v73 := (v70 >> 0)
	vals[73] = v73
	v74 := (v72 | v73)
	vals[74] = v74
	v76 := (v74 + 0x1) & 0xffffffffff
	vals[76] = v76
	v77 := (v74 * v76) & 0xffffffffff
	vals[77] = v77
	v79 := (v78 + v77) & 0xffffffffff
	vals[79] = v79
	v81 := (v70 << 1) & 0xffffffffff
	vals[81] = v81
	v83 := (v70 >> 39)
	vals[83] = v83
	v84 := (v81 | v83)
	vals[84] = v84
	v86 := (v84 + 0x3) & 0xffffffffff
	vals[86] = v86
	v87 := (v84 * v86) & 0xffffffffff
	vals[87] = v87
	v89 := (v88 + v87) & 0xffffffffff
	vals[89] = v89
	v91 := (v78 ^ v88)
	vals[91] = v91
	v93 := (v70 << 2) & 0xffffffffff
	vals[93] = v93
	v95 := (v70 >> 38)
	vals[95] = v95
	v96 := (v93 | v95)
	vals[96] = v96
	v98 := (v96 + 0x5) & 0xffffffffff
	vals[98] = v98
	v99 := (v96 * v98) & 0xffffffffff
	vals[99] = v99
	v101 := (v100 + v99) & 0xffffffffff
	vals[101] = v101
	v103 := (v91 ^ v100)
	vals[103] = v103
	v105 := (v70 << 3) & 0xffffffffff
	vals[105] = v105
	v107 := (v70 >> 37)
	vals[107] = v107
	v108 := (v105 | v107)
	vals[108] = v108
	v110 := (v108 + 0x7) & 0xffffffffff
	vals[110] = v110
	v111 := (v108 * v110) & 0xffffffffff
	vals[111] = v111
	v113 := (v112 + v111) & 0xffffffffff
	vals[113] = v113
	v115 := (v103 ^ v112)
	vals[115] = v115
	v117 := (v70 << 4) & 0xffffffffff
	vals[117] = v117
	v119 := (v70 >> 36)
	vals[119] = v119
	v120 := (v117 | v119)
	vals[120] = v120
	v122 := (v120 + 0x9) & 0xffffffffff
	vals[122] = v122
	v123 := (v120 * v122) & 0xffffffffff
	vals[123] = v123
	v125 := (v124 + v123) & 0xffffffffff
	vals[125] = v125
	v127 := (v115 ^ v124)
	vals[127] = v127
	v129 := (v70 << 5) & 0xffffffffff
	vals[129] = v129
	v131 := (v70 >> 35)
	vals[131] = v131
	v132 := (v129 | v131)
	vals[132] = v132
	v134 := (v132 + 0xb) & 0xffffffffff
	vals[134] = v134
	v135 := (v132 * v134) & 0xffffffffff
	vals[135] = v135
	v137 := (v136 + v135) & 0xffffffffff
	vals[137] = v137
	v139 := (v127 ^ v136)
	vals[139] = v139
	v140 := (v70 << 6) & 0xffffffffff
	vals[140] = v140
	v142 := (v70 >> 34)
	vals[142] = v142
	v143 := (v140 | v142)
	vals[143] = v143
	v145 := (v143 + 0xd) & 0xffffffffff
	vals[145] = v145
	v146 := (v143 * v145) & 0xffffffffff
	vals[146] = v146
	v148 := (v147 + v146) & 0xffffffffff
	vals[148] = v148
	v150 := (v139 ^ v147)
	vals[150] = v150
	v152 := (v70 << 7) & 0xffffffffff
	vals[152] = v152
	v154 := (v70 >> 33)
	vals[154] = v154
	v155 := (v152 | v154)
	vals[155] = v155
	v157 := (v155 + 0xf) & 0xffffffffff
	vals[157] = v157
	v158 := (v155 * v157) & 0xffffffffff
	vals[158] = v158
	v160 := (v159 + v158) & 0xffffffffff
	vals[160] = v160
	v162 := (v150 ^ v159)
	vals[162] = v162
	v164 := (v70 << 8) & 0xffffffffff
	vals[164] = v164
	v166 := (v70 >> 32)
	vals[166] = v166
	v167 := (v164 | v166)
	vals[167] = v167
	v169 := (v167 + 0x11) & 0xffffffffff
	vals[169] = v169
	v170 := (v167 * v169) & 0xffffffffff
	vals[170] = v170
	v172 := (v171 + v170) & 0xffffffffff
	vals[172] = v172
	v174 := (v162 ^ v171)
	vals[174] = v174
	v176 := (v70 << 9) & 0xffffffffff
	vals[176] = v176
	v178 := (v70 >> 31)
	vals[178] = v178
	v179 := (v176 | v178)
	vals[179] = v179
	v181 := (v179 + 0x13) & 0xffffffffff
	vals[181] = v181
	v182 := (v179 * v181) & 0xffffffffff
	vals[182] = v182
	v184 := (v183 + v182) & 0xffffffffff
	vals[184] = v184
	v186 := (v174 ^ v183)
	vals[186] = v186
	v187 := (v5 * v5) & 0xffffffff
	vals[187] = v187
	v189 := v9 & 0xffff
	vals[189] = v189
	v190 := (v187 + v189) & 0xffffffff
	vals[190] = v190
	v191 := (v190 * v190) & 0xffffffff
	vals[191] = v191
	v192 := (v191 >> 3)
	vals[192] = v192
	v194 := v186 & 0xffffffff
	vals[194] = v194
	v195 := (v192 ^ v194)
	vals[195] = v195
	v197 := (v196 + v195) & 0xffffffff
	vals[197] = v197
	switch v10 {
	case 0x0:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x0
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x0
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x0
		}
		vals[58] = v58
		vals[59] = 0x0
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x0
		}
		vals[60] = v60
		vals[61] = 0x0
		vals[62] = 0x0
		vals[64] = 0x1
		vals[65] = 0x1
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
	case 0x1:
		vals[18] = 0x1
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v9
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x1
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x1
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x1
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x1
		}
		vals[58] = v58
		vals[59] = 0x1
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x1
		}
		vals[60] = v60
		vals[61] = 0x1
		vals[62] = 0x2
		vals[64] = 0x0
		vals[65] = 0x2
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
	case 0x2:
		vals[18] = 0x0
		vals[20] = 0x1
		v21 := v16
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v27 := v24
		vals[27] = v27
		var v34 uint64
		if v27 != 0 {
			v34 = v26
		} else {
			v34 = v33
		}
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x2
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x2
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x2
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x2
		}
		vals[58] = v58
		vals[59] = 0x2
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x2
		}
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
	case 0x3:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x1
		v38 := v37
		vals[38] = v38
		var v46 uint64
		if v38 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x3
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x3
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x3
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x3
		}
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x3
		}
		vals[60] = v60
		v61 := v59
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
	case 0x4:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x4
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x4
		}
		vals[54] = v54
		vals[56] = 0x1
		v57 := v54
		vals[57] = v57
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x4
		}
		vals[58] = v58
		v59 := v57
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x4
		}
		vals[60] = v60
		v61 := v59
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v0
		vals[68] = v68
		v80 := v79
		vals[80] = v80
		v90 := v89
		vals[90] = v90
		v102 := v101
		vals[102] = v102
		v114 := v113
		vals[114] = v114
		v126 := v125
		vals[126] = v126
		v138 := v137
		vals[138] = v138
		v149 := v148
		vals[149] = v149
		v161 := v160
		vals[161] = v161
		v173 := v172
		vals[173] = v173
		v185 := v184
		vals[185] = v185
		v198 := v197
		vals[198] = v198
		vals[199] = 0x0
	case 0x5:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x1
		v53 := v50
		vals[53] = v53
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x5
		}
		vals[54] = v54
		vals[56] = 0x0
		v57 := v53
		vals[57] = v57
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x5
		}
		vals[58] = v58
		v59 := v57
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x5
		}
		vals[60] = v60
		v61 := v59
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v67
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
	case 0x6:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x6
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x6
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x6
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x6
		}
		vals[58] = v58
		vals[59] = 0x6
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x6
		}
		vals[60] = v60
		vals[61] = 0x6
		vals[62] = 0x6
		vals[64] = 0x0
		vals[65] = 0x6
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x1
	default:
		var v18 uint64
		if v10 == 0x1 {
			v18 = 1
		}
		vals[18] = v18
		var v20 uint64
		if v10 == 0x2 {
			v20 = 1
		}
		vals[20] = v20
		var v21 uint64
		if v20 != 0 {
			v21 = v16
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v22 uint64
		if v18 != 0 {
			v22 = v9
		} else {
			v22 = v21
		}
		vals[22] = v22
		v27 := v20 & v24
		vals[27] = v27
		var v34 uint64
		if v27 != 0 {
			v34 = v26
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v36 uint64
		if v10 == 0x3 {
			v36 = 1
		}
		vals[36] = v36
		v38 := v36 & v37
		vals[38] = v38
		var v46 uint64
		if v38 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		var v52 uint64
		if v10 == 0x5 {
			v52 = 1
		}
		vals[52] = v52
		var v53 uint64
		if v52 != 0 {
			v53 = v50
		} else {
			v53 = v10
		}
		vals[53] = v53
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = v10
		}
		vals[54] = v54
		var v56 uint64
		if v10 == 0x4 {
			v56 = 1
		}
		vals[56] = v56
		var v57 uint64
		if v56 != 0 {
			v57 = v54
		} else {
			v57 = v53
		}
		vals[57] = v57
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = v10
		}
		vals[58] = v58
		var v59 uint64
		if v36 != 0 {
			v59 = v58
		} else {
			v59 = v57
		}
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = v10
		}
		vals[60] = v60
		var v61 uint64
		if v20 != 0 {
			v61 = v60
		} else {
			v61 = v59
		}
		vals[61] = v61
		var v62 uint64
		if v18 != 0 {
			v62 = 0x2
		} else {
			v62 = v61
		}
		vals[62] = v62
		var v64 uint64
		if v10 == 0x0 {
			v64 = 1
		}
		vals[64] = v64
		var v65 uint64
		if v64 != 0 {
			v65 = 0x1
		} else {
			v65 = v62
		}
		vals[65] = v65
		var v68 uint64
		if v52 != 0 {
			v68 = v67
		} else {
			v68 = v0
		}
		vals[68] = v68
		var v80 uint64
		if v56 != 0 {
			v80 = v79
		} else {
			v80 = v78
		}
		vals[80] = v80
		var v90 uint64
		if v56 != 0 {
			v90 = v89
		} else {
			v90 = v88
		}
		vals[90] = v90
		var v102 uint64
		if v56 != 0 {
			v102 = v101
		} else {
			v102 = v100
		}
		vals[102] = v102
		var v114 uint64
		if v56 != 0 {
			v114 = v113
		} else {
			v114 = v112
		}
		vals[114] = v114
		var v126 uint64
		if v56 != 0 {
			v126 = v125
		} else {
			v126 = v124
		}
		vals[126] = v126
		var v138 uint64
		if v56 != 0 {
			v138 = v137
		} else {
			v138 = v136
		}
		vals[138] = v138
		var v149 uint64
		if v56 != 0 {
			v149 = v148
		} else {
			v149 = v147
		}
		vals[149] = v149
		var v161 uint64
		if v56 != 0 {
			v161 = v160
		} else {
			v161 = v159
		}
		vals[161] = v161
		var v173 uint64
		if v56 != 0 {
			v173 = v172
		} else {
			v173 = v171
		}
		vals[173] = v173
		var v185 uint64
		if v56 != 0 {
			v185 = v184
		} else {
			v185 = v183
		}
		vals[185] = v185
		var v198 uint64
		if v56 != 0 {
			v198 = v197
		} else {
			v198 = v196
		}
		vals[198] = v198
		var v199 uint64
		if v10 == 0x6 {
			v199 = 1
		}
		vals[199] = v199
	}
	done := vals[199] != 0
	if vals[52] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[196]
		}
	}
	l0 := vals[68] & 0x7ff
	l1 := vals[65] & 0x7
	l2 := vals[22] & 0xfffff
	l3 := vals[34] & 0x3f
	l4 := vals[46] & 0xf
	l5 := vals[80] & 0xffffffffff
	l6 := vals[90] & 0xffffffffff
	l7 := vals[102] & 0xffffffffff
	l8 := vals[114] & 0xffffffffff
	l9 := vals[126] & 0xffffffffff
	l10 := vals[138] & 0xffffffffff
	l11 := vals[149] & 0xffffffffff
	l12 := vals[161] & 0xffffffffff
	l13 := vals[173] & 0xffffffffff
	l14 := vals[185] & 0xffffffffff
	l15 := vals[198] & 0xffffffff
	vals[0] = l0
	vals[10] = l1
	vals[11] = l2
	vals[28] = l3
	vals[40] = l4
	vals[78] = l5
	vals[88] = l6
	vals[100] = l7
	vals[112] = l8
	vals[124] = l9
	vals[136] = l10
	vals[147] = l11
	vals[159] = l12
	vals[171] = l13
	vals[183] = l14
	vals[196] = l15
	return cycles + 1, done
}

func step_djpeg_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[252]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v11 := vals[11]
	v28 := vals[28]
	v40 := vals[40]
	v78 := vals[78]
	v88 := vals[88]
	v100 := vals[100]
	v112 := vals[112]
	v124 := vals[124]
	v136 := vals[136]
	v147 := vals[147]
	v159 := vals[159]
	v171 := vals[171]
	v183 := vals[183]
	v196 := vals[196]
	v203 := vals[203]
	v208 := vals[208]
	v213 := vals[213]
	v218 := vals[218]
	v223 := vals[223]
	v228 := vals[228]
	v232 := vals[232]
	v235 := vals[235]
	v238 := vals[238]
	v241 := vals[241]
	v244 := vals[244]
	v247 := vals[247]
	v250 := vals[250]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v30 uint64
		if v28 != 0x0 {
			v30 = 1
		}
		v32 := (v28 - 0x1) & 0x3f
		var v33 uint64
		if v30 != 0 {
			v33 = v32
		} else {
			v33 = v28
		}
		var v42 uint64
		if v40 != 0x0 {
			v42 = 1
		}
		v44 := (v40 - 0x1) & 0xf
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v40
		}
		switch v10 {
		case 0x0:
			v204 := (v203 + 0x1) & 0xffffff
			v21 := v11
			v22 := v21
			v34 := v33
			v46 := v45
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v204
			v210 := v208
			v215 := v213
			v220 := v218
			v225 := v223
			v230 := v228
			v234 := v232
			v237 := v235
			v240 := v238
			v243 := v241
			v246 := v244
			v249 := v247
			v252 := v250
			n0 := v68
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = 0x1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		case 0x1:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v7 := (v3 >> 6)
			v9 := v7 & 0xfffff
			v209 := (v208 + 0x1) & 0xffffff
			v22 := v9
			v34 := v33
			v46 := v45
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v203
			v210 := v209
			v215 := v213
			v220 := v218
			v225 := v223
			v230 := v228
			v234 := v232
			v237 := v235
			v240 := v238
			v243 := v241
			v246 := v244
			v249 := v247
			v252 := v250
			n0 := v68
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = 0x2
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		case 0x2:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v5 := v3 & 0x3f
			v13 := v11 & 0x1
			v15 := (v13 + 0x1) & 0x3
			var v16 uint64
			if sh := v15; sh < 64 {
				v16 = (v11 >> sh) & 0xfffff
			}
			var v24 uint64
			if v11 == 0x0 {
				v24 = 1
			}
			v26 := (v5 >> 1)
			v214 := (v213 + 0x1) & 0xffffff
			v236 := (v235 + 0x1) & 0xffffff
			v239 := (v238 + v26) & 0xffffff
			v242 := (v241 + v28) & 0xffffff
			v21 := v16
			v22 := v21
			v27 := v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			v46 := v45
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = 0x2
			}
			v61 := v60
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v203
			v210 := v208
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			v220 := v218
			v225 := v223
			v230 := v228
			v234 := v232
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			v246 := v244
			v249 := v247
			v252 := v250
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		case 0x3:
			var v37 uint64
			if v28 == 0x0 {
				v37 = 1
			}
			v219 := (v218 + 0x1) & 0xffffff
			v245 := (v244 + 0x1) & 0xffffff
			v248 := (v247 + 0xc) & 0xffffff
			v251 := (v250 + v40) & 0xffffff
			v21 := v11
			v22 := v21
			v34 := v33
			v38 := v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = 0x3
			}
			v59 := v58
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			v205 := v203
			v210 := v208
			v215 := v213
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			v225 := v223
			v230 := v228
			v234 := v232
			v237 := v235
			v240 := v238
			v243 := v241
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		case 0x4:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xfffff
			var v47 uint64
			if v40 == 0x0 {
				v47 = 1
			}
			v70 := v9
			v72 := (v70 << 0) & 0xffffffffff
			v73 := (v70 >> 0)
			v74 := (v72 | v73)
			v76 := (v74 + 0x1) & 0xffffffffff
			v77 := (v74 * v76) & 0xffffffffff
			v79 := (v78 + v77) & 0xffffffffff
			v81 := (v70 << 1) & 0xffffffffff
			v83 := (v70 >> 39)
			v84 := (v81 | v83)
			v86 := (v84 + 0x3) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v78 ^ v88)
			v93 := (v70 << 2) & 0xffffffffff
			v95 := (v70 >> 38)
			v96 := (v93 | v95)
			v98 := (v96 + 0x5) & 0xffffffffff
			v99 := (v96 * v98) & 0xffffffffff
			v101 := (v100 + v99) & 0xffffffffff
			v103 := (v91 ^ v100)
			v105 := (v70 << 3) & 0xffffffffff
			v107 := (v70 >> 37)
			v108 := (v105 | v107)
			v110 := (v108 + 0x7) & 0xffffffffff
			v111 := (v108 * v110) & 0xffffffffff
			v113 := (v112 + v111) & 0xffffffffff
			v115 := (v103 ^ v112)
			v117 := (v70 << 4) & 0xffffffffff
			v119 := (v70 >> 36)
			v120 := (v117 | v119)
			v122 := (v120 + 0x9) & 0xffffffffff
			v123 := (v120 * v122) & 0xffffffffff
			v125 := (v124 + v123) & 0xffffffffff
			v127 := (v115 ^ v124)
			v129 := (v70 << 5) & 0xffffffffff
			v131 := (v70 >> 35)
			v132 := (v129 | v131)
			v134 := (v132 + 0xb) & 0xffffffffff
			v135 := (v132 * v134) & 0xffffffffff
			v137 := (v136 + v135) & 0xffffffffff
			v139 := (v127 ^ v136)
			v140 := (v70 << 6) & 0xffffffffff
			v142 := (v70 >> 34)
			v143 := (v140 | v142)
			v145 := (v143 + 0xd) & 0xffffffffff
			v146 := (v143 * v145) & 0xffffffffff
			v148 := (v147 + v146) & 0xffffffffff
			v150 := (v139 ^ v147)
			v152 := (v70 << 7) & 0xffffffffff
			v154 := (v70 >> 33)
			v155 := (v152 | v154)
			v157 := (v155 + 0xf) & 0xffffffffff
			v158 := (v155 * v157) & 0xffffffffff
			v160 := (v159 + v158) & 0xffffffffff
			v162 := (v150 ^ v159)
			v164 := (v70 << 8) & 0xffffffffff
			v166 := (v70 >> 32)
			v167 := (v164 | v166)
			v169 := (v167 + 0x11) & 0xffffffffff
			v170 := (v167 * v169) & 0xffffffffff
			v172 := (v171 + v170) & 0xffffffffff
			v174 := (v162 ^ v171)
			v176 := (v70 << 9) & 0xffffffffff
			v178 := (v70 >> 31)
			v179 := (v176 | v178)
			v181 := (v179 + 0x13) & 0xffffffffff
			v182 := (v179 * v181) & 0xffffffffff
			v184 := (v183 + v182) & 0xffffffffff
			v186 := (v174 ^ v183)
			v187 := (v5 * v5) & 0xffffffff
			v189 := v9 & 0xffff
			v190 := (v187 + v189) & 0xffffffff
			v191 := (v190 * v190) & 0xffffffff
			v192 := (v191 >> 3)
			v194 := v186 & 0xffffffff
			v195 := (v192 ^ v194)
			v197 := (v196 + v195) & 0xffffffff
			v224 := (v223 + 0x1) & 0xffffff
			v21 := v11
			v22 := v21
			v34 := v33
			v46 := v45
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = 0x4
			}
			v57 := v54
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v0
			v80 := v79
			v90 := v89
			v102 := v101
			v114 := v113
			v126 := v125
			v138 := v137
			v149 := v148
			v161 := v160
			v173 := v172
			v185 := v184
			v198 := v197
			v205 := v203
			v210 := v208
			v215 := v213
			v220 := v218
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			v230 := v228
			v234 := v232
			v237 := v235
			v240 := v238
			v243 := v241
			v246 := v244
			v249 := v247
			v252 := v250
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		case 0x5:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v48 uint64
			if v2 <= v0 {
				v48 = 1
			}
			var v50 uint64
			if v48 != 0 {
				v50 = 0x6
			} else {
				v50 = 0x1
			}
			v67 := (v0 + 0x1) & 0x7ff
			v229 := (v228 + 0x1) & 0xffffff
			v233 := (v232 + 0x1) & 0xffffff
			v21 := v11
			v22 := v21
			v34 := v33
			v46 := v45
			v53 := v50
			v57 := v53
			v59 := v57
			v61 := v59
			v62 := v61
			v65 := v62
			v68 := v67
			v80 := v78
			v90 := v88
			v102 := v100
			v114 := v112
			v126 := v124
			v138 := v136
			v149 := v147
			v161 := v159
			v173 := v171
			v185 := v183
			v198 := v196
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v205 := v203
			v210 := v208
			v215 := v213
			v220 := v218
			v225 := v223
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			v237 := v235
			v240 := v238
			v243 := v241
			v246 := v244
			v249 := v247
			v252 := v250
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v196
			}
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		case 0x6:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x7ff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x3ffffff
			}
			v5 := v3 & 0x3f
			v7 := (v3 >> 6)
			v9 := v7 & 0xfffff
			v13 := v11 & 0x1
			v15 := (v13 + 0x1) & 0x3
			var v16 uint64
			if sh := v15; sh < 64 {
				v16 = (v11 >> sh) & 0xfffff
			}
			var v24 uint64
			if v11 == 0x0 {
				v24 = 1
			}
			v26 := (v5 >> 1)
			var v37 uint64
			if v28 == 0x0 {
				v37 = 1
			}
			var v47 uint64
			if v40 == 0x0 {
				v47 = 1
			}
			var v48 uint64
			if v2 <= v0 {
				v48 = 1
			}
			var v50 uint64
			if v48 != 0 {
				v50 = 0x6
			} else {
				v50 = 0x1
			}
			v67 := (v0 + 0x1) & 0x7ff
			v70 := v9
			v72 := (v70 << 0) & 0xffffffffff
			v73 := (v70 >> 0)
			v74 := (v72 | v73)
			v76 := (v74 + 0x1) & 0xffffffffff
			v77 := (v74 * v76) & 0xffffffffff
			v79 := (v78 + v77) & 0xffffffffff
			v81 := (v70 << 1) & 0xffffffffff
			v83 := (v70 >> 39)
			v84 := (v81 | v83)
			v86 := (v84 + 0x3) & 0xffffffffff
			v87 := (v84 * v86) & 0xffffffffff
			v89 := (v88 + v87) & 0xffffffffff
			v91 := (v78 ^ v88)
			v93 := (v70 << 2) & 0xffffffffff
			v95 := (v70 >> 38)
			v96 := (v93 | v95)
			v98 := (v96 + 0x5) & 0xffffffffff
			v99 := (v96 * v98) & 0xffffffffff
			v101 := (v100 + v99) & 0xffffffffff
			v103 := (v91 ^ v100)
			v105 := (v70 << 3) & 0xffffffffff
			v107 := (v70 >> 37)
			v108 := (v105 | v107)
			v110 := (v108 + 0x7) & 0xffffffffff
			v111 := (v108 * v110) & 0xffffffffff
			v113 := (v112 + v111) & 0xffffffffff
			v115 := (v103 ^ v112)
			v117 := (v70 << 4) & 0xffffffffff
			v119 := (v70 >> 36)
			v120 := (v117 | v119)
			v122 := (v120 + 0x9) & 0xffffffffff
			v123 := (v120 * v122) & 0xffffffffff
			v125 := (v124 + v123) & 0xffffffffff
			v127 := (v115 ^ v124)
			v129 := (v70 << 5) & 0xffffffffff
			v131 := (v70 >> 35)
			v132 := (v129 | v131)
			v134 := (v132 + 0xb) & 0xffffffffff
			v135 := (v132 * v134) & 0xffffffffff
			v137 := (v136 + v135) & 0xffffffffff
			v139 := (v127 ^ v136)
			v140 := (v70 << 6) & 0xffffffffff
			v142 := (v70 >> 34)
			v143 := (v140 | v142)
			v145 := (v143 + 0xd) & 0xffffffffff
			v146 := (v143 * v145) & 0xffffffffff
			v148 := (v147 + v146) & 0xffffffffff
			v150 := (v139 ^ v147)
			v152 := (v70 << 7) & 0xffffffffff
			v154 := (v70 >> 33)
			v155 := (v152 | v154)
			v157 := (v155 + 0xf) & 0xffffffffff
			v158 := (v155 * v157) & 0xffffffffff
			v160 := (v159 + v158) & 0xffffffffff
			v162 := (v150 ^ v159)
			v164 := (v70 << 8) & 0xffffffffff
			v166 := (v70 >> 32)
			v167 := (v164 | v166)
			v169 := (v167 + 0x11) & 0xffffffffff
			v170 := (v167 * v169) & 0xffffffffff
			v172 := (v171 + v170) & 0xffffffffff
			v174 := (v162 ^ v171)
			v176 := (v70 << 9) & 0xffffffffff
			v178 := (v70 >> 31)
			v179 := (v176 | v178)
			v181 := (v179 + 0x13) & 0xffffffffff
			v182 := (v179 * v181) & 0xffffffffff
			v184 := (v183 + v182) & 0xffffffffff
			v186 := (v174 ^ v183)
			v187 := (v5 * v5) & 0xffffffff
			v189 := v9 & 0xffff
			v190 := (v187 + v189) & 0xffffffff
			v191 := (v190 * v190) & 0xffffffff
			v192 := (v191 >> 3)
			v194 := v186 & 0xffffffff
			v195 := (v192 ^ v194)
			v197 := (v196 + v195) & 0xffffffff
			v204 := (v203 + 0x1) & 0xffffff
			v209 := (v208 + 0x1) & 0xffffff
			v214 := (v213 + 0x1) & 0xffffff
			v219 := (v218 + 0x1) & 0xffffff
			v224 := (v223 + 0x1) & 0xffffff
			v229 := (v228 + 0x1) & 0xffffff
			v233 := (v232 + 0x1) & 0xffffff
			v236 := (v235 + 0x1) & 0xffffff
			v239 := (v238 + v26) & 0xffffff
			v242 := (v241 + v28) & 0xffffff
			v245 := (v244 + 0x1) & 0xffffff
			v248 := (v247 + 0xc) & 0xffffff
			v251 := (v250 + v40) & 0xffffff
			var v18 uint64
			if v10 == 0x1 {
				v18 = 1
			}
			var v20 uint64
			if v10 == 0x2 {
				v20 = 1
			}
			var v21 uint64
			if v20 != 0 {
				v21 = v16
			} else {
				v21 = v11
			}
			var v22 uint64
			if v18 != 0 {
				v22 = v9
			} else {
				v22 = v21
			}
			v27 := v20 & v24
			var v34 uint64
			if v27 != 0 {
				v34 = v26
			} else {
				v34 = v33
			}
			var v36 uint64
			if v10 == 0x3 {
				v36 = 1
			}
			v38 := v36 & v37
			var v46 uint64
			if v38 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			var v52 uint64
			if v10 == 0x5 {
				v52 = 1
			}
			var v53 uint64
			if v52 != 0 {
				v53 = v50
			} else {
				v53 = v10
			}
			var v54 uint64
			if v47 != 0 {
				v54 = 0x5
			} else {
				v54 = v10
			}
			var v56 uint64
			if v10 == 0x4 {
				v56 = 1
			}
			var v57 uint64
			if v56 != 0 {
				v57 = v54
			} else {
				v57 = v53
			}
			var v58 uint64
			if v37 != 0 {
				v58 = 0x4
			} else {
				v58 = v10
			}
			var v59 uint64
			if v36 != 0 {
				v59 = v58
			} else {
				v59 = v57
			}
			var v60 uint64
			if v24 != 0 {
				v60 = 0x3
			} else {
				v60 = v10
			}
			var v61 uint64
			if v20 != 0 {
				v61 = v60
			} else {
				v61 = v59
			}
			var v62 uint64
			if v18 != 0 {
				v62 = 0x2
			} else {
				v62 = v61
			}
			var v64 uint64
			if v10 == 0x0 {
				v64 = 1
			}
			var v65 uint64
			if v64 != 0 {
				v65 = 0x1
			} else {
				v65 = v62
			}
			var v68 uint64
			if v52 != 0 {
				v68 = v67
			} else {
				v68 = v0
			}
			var v80 uint64
			if v56 != 0 {
				v80 = v79
			} else {
				v80 = v78
			}
			var v90 uint64
			if v56 != 0 {
				v90 = v89
			} else {
				v90 = v88
			}
			var v102 uint64
			if v56 != 0 {
				v102 = v101
			} else {
				v102 = v100
			}
			var v114 uint64
			if v56 != 0 {
				v114 = v113
			} else {
				v114 = v112
			}
			var v126 uint64
			if v56 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v138 uint64
			if v56 != 0 {
				v138 = v137
			} else {
				v138 = v136
			}
			var v149 uint64
			if v56 != 0 {
				v149 = v148
			} else {
				v149 = v147
			}
			var v161 uint64
			if v56 != 0 {
				v161 = v160
			} else {
				v161 = v159
			}
			var v173 uint64
			if v56 != 0 {
				v173 = v172
			} else {
				v173 = v171
			}
			var v185 uint64
			if v56 != 0 {
				v185 = v184
			} else {
				v185 = v183
			}
			var v198 uint64
			if v56 != 0 {
				v198 = v197
			} else {
				v198 = v196
			}
			var v199 uint64
			if v10 == 0x6 {
				v199 = 1
			}
			var v200 uint64
			if v65 == 0x1 {
				v200 = 1
			}
			v201 := v64 & v200
			var v205 uint64
			if v201 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v206 uint64
			if v65 == 0x2 {
				v206 = 1
			}
			v207 := v18 & v206
			var v210 uint64
			if v207 != 0 {
				v210 = v209
			} else {
				v210 = v208
			}
			var v211 uint64
			if v65 == 0x3 {
				v211 = 1
			}
			v212 := v20 & v211
			var v215 uint64
			if v212 != 0 {
				v215 = v214
			} else {
				v215 = v213
			}
			var v216 uint64
			if v65 == 0x4 {
				v216 = 1
			}
			v217 := v36 & v216
			var v220 uint64
			if v217 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v65 == 0x5 {
				v221 = 1
			}
			v222 := v56 & v221
			var v225 uint64
			if v222 != 0 {
				v225 = v224
			} else {
				v225 = v223
			}
			var v226 uint64
			if v65 == 0x6 {
				v226 = 1
			}
			v227 := v52 & v226
			var v230 uint64
			if v227 != 0 {
				v230 = v229
			} else {
				v230 = v228
			}
			v231 := v52 & v200
			var v234 uint64
			if v231 != 0 {
				v234 = v233
			} else {
				v234 = v232
			}
			var v237 uint64
			if v27 != 0 {
				v237 = v236
			} else {
				v237 = v235
			}
			var v240 uint64
			if v27 != 0 {
				v240 = v239
			} else {
				v240 = v238
			}
			var v243 uint64
			if v27 != 0 {
				v243 = v242
			} else {
				v243 = v241
			}
			var v246 uint64
			if v38 != 0 {
				v246 = v245
			} else {
				v246 = v244
			}
			var v249 uint64
			if v38 != 0 {
				v249 = v248
			} else {
				v249 = v247
			}
			var v252 uint64
			if v38 != 0 {
				v252 = v251
			} else {
				v252 = v250
			}
			if v199 != 0 {
				break loop
			}
			if v52 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v196
				}
			}
			n0 := v68
			n1 := v65
			n2 := v22
			n3 := v34
			n4 := v46
			n5 := v80
			n6 := v90
			n7 := v102
			n8 := v114
			n9 := v126
			n10 := v138
			n11 := v149
			n12 := v161
			n13 := v173
			n14 := v185
			n15 := v198
			n16 := v205
			n17 := v210
			n18 := v215
			n19 := v220
			n20 := v225
			n21 := v230
			n22 := v234
			n23 := v237
			n24 := v240
			n25 := v243
			n26 := v246
			n27 := v249
			n28 := v252
			v0 = n0
			v10 = n1
			v11 = n2
			v28 = n3
			v40 = n4
			v78 = n5
			v88 = n6
			v100 = n7
			v112 = n8
			v124 = n9
			v136 = n10
			v147 = n11
			v159 = n12
			v171 = n13
			v183 = n14
			v196 = n15
			v203 = n16
			v208 = n17
			v213 = n18
			v218 = n19
			v223 = n20
			v228 = n21
			v232 = n22
			v235 = n23
			v238 = n24
			v241 = n25
			v244 = n26
			v247 = n27
			v250 = n28
		}
	}
	vals[0] = v0
	vals[10] = v10
	vals[11] = v11
	vals[28] = v28
	vals[40] = v40
	vals[78] = v78
	vals[88] = v88
	vals[100] = v100
	vals[112] = v112
	vals[124] = v124
	vals[136] = v136
	vals[147] = v147
	vals[159] = v159
	vals[171] = v171
	vals[183] = v183
	vals[196] = v196
	vals[203] = v203
	vals[208] = v208
	vals[213] = v213
	vals[218] = v218
	vals[223] = v223
	vals[228] = v228
	vals[232] = v232
	vals[235] = v235
	vals[238] = v238
	vals[241] = v241
	vals[244] = v244
	vals[247] = v247
	vals[250] = v250
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x7ff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x3ffffff
	}
	vals[3] = v3
	v5 := v3 & 0x3f
	vals[5] = v5
	v7 := (v3 >> 6)
	vals[7] = v7
	v9 := v7 & 0xfffff
	vals[9] = v9
	v13 := v11 & 0x1
	vals[13] = v13
	v15 := (v13 + 0x1) & 0x3
	vals[15] = v15
	var v16 uint64
	if sh := v15; sh < 64 {
		v16 = (v11 >> sh) & 0xfffff
	}
	vals[16] = v16
	var v24 uint64
	if v11 == 0x0 {
		v24 = 1
	}
	vals[24] = v24
	v26 := (v5 >> 1)
	vals[26] = v26
	var v30 uint64
	if v28 != 0x0 {
		v30 = 1
	}
	vals[30] = v30
	v32 := (v28 - 0x1) & 0x3f
	vals[32] = v32
	var v33 uint64
	if v30 != 0 {
		v33 = v32
	} else {
		v33 = v28
	}
	vals[33] = v33
	var v37 uint64
	if v28 == 0x0 {
		v37 = 1
	}
	vals[37] = v37
	var v42 uint64
	if v40 != 0x0 {
		v42 = 1
	}
	vals[42] = v42
	v44 := (v40 - 0x1) & 0xf
	vals[44] = v44
	var v45 uint64
	if v42 != 0 {
		v45 = v44
	} else {
		v45 = v40
	}
	vals[45] = v45
	var v47 uint64
	if v40 == 0x0 {
		v47 = 1
	}
	vals[47] = v47
	var v48 uint64
	if v2 <= v0 {
		v48 = 1
	}
	vals[48] = v48
	var v50 uint64
	if v48 != 0 {
		v50 = 0x6
	} else {
		v50 = 0x1
	}
	vals[50] = v50
	v67 := (v0 + 0x1) & 0x7ff
	vals[67] = v67
	v70 := v9
	vals[70] = v70
	v72 := (v70 << 0) & 0xffffffffff
	vals[72] = v72
	v73 := (v70 >> 0)
	vals[73] = v73
	v74 := (v72 | v73)
	vals[74] = v74
	v76 := (v74 + 0x1) & 0xffffffffff
	vals[76] = v76
	v77 := (v74 * v76) & 0xffffffffff
	vals[77] = v77
	v79 := (v78 + v77) & 0xffffffffff
	vals[79] = v79
	v81 := (v70 << 1) & 0xffffffffff
	vals[81] = v81
	v83 := (v70 >> 39)
	vals[83] = v83
	v84 := (v81 | v83)
	vals[84] = v84
	v86 := (v84 + 0x3) & 0xffffffffff
	vals[86] = v86
	v87 := (v84 * v86) & 0xffffffffff
	vals[87] = v87
	v89 := (v88 + v87) & 0xffffffffff
	vals[89] = v89
	v91 := (v78 ^ v88)
	vals[91] = v91
	v93 := (v70 << 2) & 0xffffffffff
	vals[93] = v93
	v95 := (v70 >> 38)
	vals[95] = v95
	v96 := (v93 | v95)
	vals[96] = v96
	v98 := (v96 + 0x5) & 0xffffffffff
	vals[98] = v98
	v99 := (v96 * v98) & 0xffffffffff
	vals[99] = v99
	v101 := (v100 + v99) & 0xffffffffff
	vals[101] = v101
	v103 := (v91 ^ v100)
	vals[103] = v103
	v105 := (v70 << 3) & 0xffffffffff
	vals[105] = v105
	v107 := (v70 >> 37)
	vals[107] = v107
	v108 := (v105 | v107)
	vals[108] = v108
	v110 := (v108 + 0x7) & 0xffffffffff
	vals[110] = v110
	v111 := (v108 * v110) & 0xffffffffff
	vals[111] = v111
	v113 := (v112 + v111) & 0xffffffffff
	vals[113] = v113
	v115 := (v103 ^ v112)
	vals[115] = v115
	v117 := (v70 << 4) & 0xffffffffff
	vals[117] = v117
	v119 := (v70 >> 36)
	vals[119] = v119
	v120 := (v117 | v119)
	vals[120] = v120
	v122 := (v120 + 0x9) & 0xffffffffff
	vals[122] = v122
	v123 := (v120 * v122) & 0xffffffffff
	vals[123] = v123
	v125 := (v124 + v123) & 0xffffffffff
	vals[125] = v125
	v127 := (v115 ^ v124)
	vals[127] = v127
	v129 := (v70 << 5) & 0xffffffffff
	vals[129] = v129
	v131 := (v70 >> 35)
	vals[131] = v131
	v132 := (v129 | v131)
	vals[132] = v132
	v134 := (v132 + 0xb) & 0xffffffffff
	vals[134] = v134
	v135 := (v132 * v134) & 0xffffffffff
	vals[135] = v135
	v137 := (v136 + v135) & 0xffffffffff
	vals[137] = v137
	v139 := (v127 ^ v136)
	vals[139] = v139
	v140 := (v70 << 6) & 0xffffffffff
	vals[140] = v140
	v142 := (v70 >> 34)
	vals[142] = v142
	v143 := (v140 | v142)
	vals[143] = v143
	v145 := (v143 + 0xd) & 0xffffffffff
	vals[145] = v145
	v146 := (v143 * v145) & 0xffffffffff
	vals[146] = v146
	v148 := (v147 + v146) & 0xffffffffff
	vals[148] = v148
	v150 := (v139 ^ v147)
	vals[150] = v150
	v152 := (v70 << 7) & 0xffffffffff
	vals[152] = v152
	v154 := (v70 >> 33)
	vals[154] = v154
	v155 := (v152 | v154)
	vals[155] = v155
	v157 := (v155 + 0xf) & 0xffffffffff
	vals[157] = v157
	v158 := (v155 * v157) & 0xffffffffff
	vals[158] = v158
	v160 := (v159 + v158) & 0xffffffffff
	vals[160] = v160
	v162 := (v150 ^ v159)
	vals[162] = v162
	v164 := (v70 << 8) & 0xffffffffff
	vals[164] = v164
	v166 := (v70 >> 32)
	vals[166] = v166
	v167 := (v164 | v166)
	vals[167] = v167
	v169 := (v167 + 0x11) & 0xffffffffff
	vals[169] = v169
	v170 := (v167 * v169) & 0xffffffffff
	vals[170] = v170
	v172 := (v171 + v170) & 0xffffffffff
	vals[172] = v172
	v174 := (v162 ^ v171)
	vals[174] = v174
	v176 := (v70 << 9) & 0xffffffffff
	vals[176] = v176
	v178 := (v70 >> 31)
	vals[178] = v178
	v179 := (v176 | v178)
	vals[179] = v179
	v181 := (v179 + 0x13) & 0xffffffffff
	vals[181] = v181
	v182 := (v179 * v181) & 0xffffffffff
	vals[182] = v182
	v184 := (v183 + v182) & 0xffffffffff
	vals[184] = v184
	v186 := (v174 ^ v183)
	vals[186] = v186
	v187 := (v5 * v5) & 0xffffffff
	vals[187] = v187
	v189 := v9 & 0xffff
	vals[189] = v189
	v190 := (v187 + v189) & 0xffffffff
	vals[190] = v190
	v191 := (v190 * v190) & 0xffffffff
	vals[191] = v191
	v192 := (v191 >> 3)
	vals[192] = v192
	v194 := v186 & 0xffffffff
	vals[194] = v194
	v195 := (v192 ^ v194)
	vals[195] = v195
	v197 := (v196 + v195) & 0xffffffff
	vals[197] = v197
	v204 := (v203 + 0x1) & 0xffffff
	vals[204] = v204
	v209 := (v208 + 0x1) & 0xffffff
	vals[209] = v209
	v214 := (v213 + 0x1) & 0xffffff
	vals[214] = v214
	v219 := (v218 + 0x1) & 0xffffff
	vals[219] = v219
	v224 := (v223 + 0x1) & 0xffffff
	vals[224] = v224
	v229 := (v228 + 0x1) & 0xffffff
	vals[229] = v229
	v233 := (v232 + 0x1) & 0xffffff
	vals[233] = v233
	v236 := (v235 + 0x1) & 0xffffff
	vals[236] = v236
	v239 := (v238 + v26) & 0xffffff
	vals[239] = v239
	v242 := (v241 + v28) & 0xffffff
	vals[242] = v242
	v245 := (v244 + 0x1) & 0xffffff
	vals[245] = v245
	v248 := (v247 + 0xc) & 0xffffff
	vals[248] = v248
	v251 := (v250 + v40) & 0xffffff
	vals[251] = v251
	switch v10 {
	case 0x0:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x0
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x0
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x0
		}
		vals[58] = v58
		vals[59] = 0x0
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x0
		}
		vals[60] = v60
		vals[61] = 0x0
		vals[62] = 0x0
		vals[64] = 0x1
		vals[65] = 0x1
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
		vals[200] = 0x1
		vals[201] = 0x1
		v205 := v204
		vals[205] = v205
		vals[206] = 0x0
		vals[207] = 0x0
		v210 := v208
		vals[210] = v210
		vals[211] = 0x0
		vals[212] = 0x0
		v215 := v213
		vals[215] = v215
		vals[216] = 0x0
		vals[217] = 0x0
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
		vals[222] = 0x0
		v225 := v223
		vals[225] = v225
		vals[226] = 0x0
		vals[227] = 0x0
		v230 := v228
		vals[230] = v230
		vals[231] = 0x0
		v234 := v232
		vals[234] = v234
		v237 := v235
		vals[237] = v237
		v240 := v238
		vals[240] = v240
		v243 := v241
		vals[243] = v243
		v246 := v244
		vals[246] = v246
		v249 := v247
		vals[249] = v249
		v252 := v250
		vals[252] = v252
	case 0x1:
		vals[18] = 0x1
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v9
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x1
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x1
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x1
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x1
		}
		vals[58] = v58
		vals[59] = 0x1
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x1
		}
		vals[60] = v60
		vals[61] = 0x1
		vals[62] = 0x2
		vals[64] = 0x0
		vals[65] = 0x2
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
		vals[200] = 0x0
		vals[201] = 0x0
		v205 := v203
		vals[205] = v205
		vals[206] = 0x1
		vals[207] = 0x1
		v210 := v209
		vals[210] = v210
		vals[211] = 0x0
		vals[212] = 0x0
		v215 := v213
		vals[215] = v215
		vals[216] = 0x0
		vals[217] = 0x0
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
		vals[222] = 0x0
		v225 := v223
		vals[225] = v225
		vals[226] = 0x0
		vals[227] = 0x0
		v230 := v228
		vals[230] = v230
		vals[231] = 0x0
		v234 := v232
		vals[234] = v234
		v237 := v235
		vals[237] = v237
		v240 := v238
		vals[240] = v240
		v243 := v241
		vals[243] = v243
		v246 := v244
		vals[246] = v246
		v249 := v247
		vals[249] = v249
		v252 := v250
		vals[252] = v252
	case 0x2:
		vals[18] = 0x0
		vals[20] = 0x1
		v21 := v16
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v27 := v24
		vals[27] = v27
		var v34 uint64
		if v27 != 0 {
			v34 = v26
		} else {
			v34 = v33
		}
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x2
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x2
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x2
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x2
		}
		vals[58] = v58
		vals[59] = 0x2
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x2
		}
		vals[60] = v60
		v61 := v60
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
		var v200 uint64
		if v65 == 0x1 {
			v200 = 1
		}
		vals[200] = v200
		vals[201] = 0x0
		v205 := v203
		vals[205] = v205
		var v206 uint64
		if v65 == 0x2 {
			v206 = 1
		}
		vals[206] = v206
		vals[207] = 0x0
		v210 := v208
		vals[210] = v210
		var v211 uint64
		if v65 == 0x3 {
			v211 = 1
		}
		vals[211] = v211
		v212 := v211
		vals[212] = v212
		var v215 uint64
		if v212 != 0 {
			v215 = v214
		} else {
			v215 = v213
		}
		vals[215] = v215
		var v216 uint64
		if v65 == 0x4 {
			v216 = 1
		}
		vals[216] = v216
		vals[217] = 0x0
		v220 := v218
		vals[220] = v220
		var v221 uint64
		if v65 == 0x5 {
			v221 = 1
		}
		vals[221] = v221
		vals[222] = 0x0
		v225 := v223
		vals[225] = v225
		var v226 uint64
		if v65 == 0x6 {
			v226 = 1
		}
		vals[226] = v226
		vals[227] = 0x0
		v230 := v228
		vals[230] = v230
		vals[231] = 0x0
		v234 := v232
		vals[234] = v234
		var v237 uint64
		if v27 != 0 {
			v237 = v236
		} else {
			v237 = v235
		}
		vals[237] = v237
		var v240 uint64
		if v27 != 0 {
			v240 = v239
		} else {
			v240 = v238
		}
		vals[240] = v240
		var v243 uint64
		if v27 != 0 {
			v243 = v242
		} else {
			v243 = v241
		}
		vals[243] = v243
		v246 := v244
		vals[246] = v246
		v249 := v247
		vals[249] = v249
		v252 := v250
		vals[252] = v252
	case 0x3:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x1
		v38 := v37
		vals[38] = v38
		var v46 uint64
		if v38 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x3
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x3
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x3
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x3
		}
		vals[58] = v58
		v59 := v58
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x3
		}
		vals[60] = v60
		v61 := v59
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
		var v200 uint64
		if v65 == 0x1 {
			v200 = 1
		}
		vals[200] = v200
		vals[201] = 0x0
		v205 := v203
		vals[205] = v205
		var v206 uint64
		if v65 == 0x2 {
			v206 = 1
		}
		vals[206] = v206
		vals[207] = 0x0
		v210 := v208
		vals[210] = v210
		var v211 uint64
		if v65 == 0x3 {
			v211 = 1
		}
		vals[211] = v211
		vals[212] = 0x0
		v215 := v213
		vals[215] = v215
		var v216 uint64
		if v65 == 0x4 {
			v216 = 1
		}
		vals[216] = v216
		v217 := v216
		vals[217] = v217
		var v220 uint64
		if v217 != 0 {
			v220 = v219
		} else {
			v220 = v218
		}
		vals[220] = v220
		var v221 uint64
		if v65 == 0x5 {
			v221 = 1
		}
		vals[221] = v221
		vals[222] = 0x0
		v225 := v223
		vals[225] = v225
		var v226 uint64
		if v65 == 0x6 {
			v226 = 1
		}
		vals[226] = v226
		vals[227] = 0x0
		v230 := v228
		vals[230] = v230
		vals[231] = 0x0
		v234 := v232
		vals[234] = v234
		v237 := v235
		vals[237] = v237
		v240 := v238
		vals[240] = v240
		v243 := v241
		vals[243] = v243
		var v246 uint64
		if v38 != 0 {
			v246 = v245
		} else {
			v246 = v244
		}
		vals[246] = v246
		var v249 uint64
		if v38 != 0 {
			v249 = v248
		} else {
			v249 = v247
		}
		vals[249] = v249
		var v252 uint64
		if v38 != 0 {
			v252 = v251
		} else {
			v252 = v250
		}
		vals[252] = v252
	case 0x4:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x4
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x4
		}
		vals[54] = v54
		vals[56] = 0x1
		v57 := v54
		vals[57] = v57
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x4
		}
		vals[58] = v58
		v59 := v57
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x4
		}
		vals[60] = v60
		v61 := v59
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v0
		vals[68] = v68
		v80 := v79
		vals[80] = v80
		v90 := v89
		vals[90] = v90
		v102 := v101
		vals[102] = v102
		v114 := v113
		vals[114] = v114
		v126 := v125
		vals[126] = v126
		v138 := v137
		vals[138] = v138
		v149 := v148
		vals[149] = v149
		v161 := v160
		vals[161] = v161
		v173 := v172
		vals[173] = v173
		v185 := v184
		vals[185] = v185
		v198 := v197
		vals[198] = v198
		vals[199] = 0x0
		var v200 uint64
		if v65 == 0x1 {
			v200 = 1
		}
		vals[200] = v200
		vals[201] = 0x0
		v205 := v203
		vals[205] = v205
		var v206 uint64
		if v65 == 0x2 {
			v206 = 1
		}
		vals[206] = v206
		vals[207] = 0x0
		v210 := v208
		vals[210] = v210
		var v211 uint64
		if v65 == 0x3 {
			v211 = 1
		}
		vals[211] = v211
		vals[212] = 0x0
		v215 := v213
		vals[215] = v215
		var v216 uint64
		if v65 == 0x4 {
			v216 = 1
		}
		vals[216] = v216
		vals[217] = 0x0
		v220 := v218
		vals[220] = v220
		var v221 uint64
		if v65 == 0x5 {
			v221 = 1
		}
		vals[221] = v221
		v222 := v221
		vals[222] = v222
		var v225 uint64
		if v222 != 0 {
			v225 = v224
		} else {
			v225 = v223
		}
		vals[225] = v225
		var v226 uint64
		if v65 == 0x6 {
			v226 = 1
		}
		vals[226] = v226
		vals[227] = 0x0
		v230 := v228
		vals[230] = v230
		vals[231] = 0x0
		v234 := v232
		vals[234] = v234
		v237 := v235
		vals[237] = v237
		v240 := v238
		vals[240] = v240
		v243 := v241
		vals[243] = v243
		v246 := v244
		vals[246] = v246
		v249 := v247
		vals[249] = v249
		v252 := v250
		vals[252] = v252
	case 0x5:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x1
		v53 := v50
		vals[53] = v53
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x5
		}
		vals[54] = v54
		vals[56] = 0x0
		v57 := v53
		vals[57] = v57
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x5
		}
		vals[58] = v58
		v59 := v57
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x5
		}
		vals[60] = v60
		v61 := v59
		vals[61] = v61
		v62 := v61
		vals[62] = v62
		vals[64] = 0x0
		v65 := v62
		vals[65] = v65
		v68 := v67
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x0
		var v200 uint64
		if v65 == 0x1 {
			v200 = 1
		}
		vals[200] = v200
		vals[201] = 0x0
		v205 := v203
		vals[205] = v205
		var v206 uint64
		if v65 == 0x2 {
			v206 = 1
		}
		vals[206] = v206
		vals[207] = 0x0
		v210 := v208
		vals[210] = v210
		var v211 uint64
		if v65 == 0x3 {
			v211 = 1
		}
		vals[211] = v211
		vals[212] = 0x0
		v215 := v213
		vals[215] = v215
		var v216 uint64
		if v65 == 0x4 {
			v216 = 1
		}
		vals[216] = v216
		vals[217] = 0x0
		v220 := v218
		vals[220] = v220
		var v221 uint64
		if v65 == 0x5 {
			v221 = 1
		}
		vals[221] = v221
		vals[222] = 0x0
		v225 := v223
		vals[225] = v225
		var v226 uint64
		if v65 == 0x6 {
			v226 = 1
		}
		vals[226] = v226
		v227 := v226
		vals[227] = v227
		var v230 uint64
		if v227 != 0 {
			v230 = v229
		} else {
			v230 = v228
		}
		vals[230] = v230
		v231 := v200
		vals[231] = v231
		var v234 uint64
		if v231 != 0 {
			v234 = v233
		} else {
			v234 = v232
		}
		vals[234] = v234
		v237 := v235
		vals[237] = v237
		v240 := v238
		vals[240] = v240
		v243 := v241
		vals[243] = v243
		v246 := v244
		vals[246] = v246
		v249 := v247
		vals[249] = v249
		v252 := v250
		vals[252] = v252
	case 0x6:
		vals[18] = 0x0
		vals[20] = 0x0
		v21 := v11
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		vals[27] = 0x0
		v34 := v33
		vals[34] = v34
		vals[36] = 0x0
		vals[38] = 0x0
		v46 := v45
		vals[46] = v46
		vals[52] = 0x0
		vals[53] = 0x6
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = 0x6
		}
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x6
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = 0x6
		}
		vals[58] = v58
		vals[59] = 0x6
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = 0x6
		}
		vals[60] = v60
		vals[61] = 0x6
		vals[62] = 0x6
		vals[64] = 0x0
		vals[65] = 0x6
		v68 := v0
		vals[68] = v68
		v80 := v78
		vals[80] = v80
		v90 := v88
		vals[90] = v90
		v102 := v100
		vals[102] = v102
		v114 := v112
		vals[114] = v114
		v126 := v124
		vals[126] = v126
		v138 := v136
		vals[138] = v138
		v149 := v147
		vals[149] = v149
		v161 := v159
		vals[161] = v161
		v173 := v171
		vals[173] = v173
		v185 := v183
		vals[185] = v185
		v198 := v196
		vals[198] = v198
		vals[199] = 0x1
		vals[200] = 0x0
		vals[201] = 0x0
		v205 := v203
		vals[205] = v205
		vals[206] = 0x0
		vals[207] = 0x0
		v210 := v208
		vals[210] = v210
		vals[211] = 0x0
		vals[212] = 0x0
		v215 := v213
		vals[215] = v215
		vals[216] = 0x0
		vals[217] = 0x0
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
		vals[222] = 0x0
		v225 := v223
		vals[225] = v225
		vals[226] = 0x1
		vals[227] = 0x0
		v230 := v228
		vals[230] = v230
		vals[231] = 0x0
		v234 := v232
		vals[234] = v234
		v237 := v235
		vals[237] = v237
		v240 := v238
		vals[240] = v240
		v243 := v241
		vals[243] = v243
		v246 := v244
		vals[246] = v246
		v249 := v247
		vals[249] = v249
		v252 := v250
		vals[252] = v252
	default:
		var v18 uint64
		if v10 == 0x1 {
			v18 = 1
		}
		vals[18] = v18
		var v20 uint64
		if v10 == 0x2 {
			v20 = 1
		}
		vals[20] = v20
		var v21 uint64
		if v20 != 0 {
			v21 = v16
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v22 uint64
		if v18 != 0 {
			v22 = v9
		} else {
			v22 = v21
		}
		vals[22] = v22
		v27 := v20 & v24
		vals[27] = v27
		var v34 uint64
		if v27 != 0 {
			v34 = v26
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v36 uint64
		if v10 == 0x3 {
			v36 = 1
		}
		vals[36] = v36
		v38 := v36 & v37
		vals[38] = v38
		var v46 uint64
		if v38 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		var v52 uint64
		if v10 == 0x5 {
			v52 = 1
		}
		vals[52] = v52
		var v53 uint64
		if v52 != 0 {
			v53 = v50
		} else {
			v53 = v10
		}
		vals[53] = v53
		var v54 uint64
		if v47 != 0 {
			v54 = 0x5
		} else {
			v54 = v10
		}
		vals[54] = v54
		var v56 uint64
		if v10 == 0x4 {
			v56 = 1
		}
		vals[56] = v56
		var v57 uint64
		if v56 != 0 {
			v57 = v54
		} else {
			v57 = v53
		}
		vals[57] = v57
		var v58 uint64
		if v37 != 0 {
			v58 = 0x4
		} else {
			v58 = v10
		}
		vals[58] = v58
		var v59 uint64
		if v36 != 0 {
			v59 = v58
		} else {
			v59 = v57
		}
		vals[59] = v59
		var v60 uint64
		if v24 != 0 {
			v60 = 0x3
		} else {
			v60 = v10
		}
		vals[60] = v60
		var v61 uint64
		if v20 != 0 {
			v61 = v60
		} else {
			v61 = v59
		}
		vals[61] = v61
		var v62 uint64
		if v18 != 0 {
			v62 = 0x2
		} else {
			v62 = v61
		}
		vals[62] = v62
		var v64 uint64
		if v10 == 0x0 {
			v64 = 1
		}
		vals[64] = v64
		var v65 uint64
		if v64 != 0 {
			v65 = 0x1
		} else {
			v65 = v62
		}
		vals[65] = v65
		var v68 uint64
		if v52 != 0 {
			v68 = v67
		} else {
			v68 = v0
		}
		vals[68] = v68
		var v80 uint64
		if v56 != 0 {
			v80 = v79
		} else {
			v80 = v78
		}
		vals[80] = v80
		var v90 uint64
		if v56 != 0 {
			v90 = v89
		} else {
			v90 = v88
		}
		vals[90] = v90
		var v102 uint64
		if v56 != 0 {
			v102 = v101
		} else {
			v102 = v100
		}
		vals[102] = v102
		var v114 uint64
		if v56 != 0 {
			v114 = v113
		} else {
			v114 = v112
		}
		vals[114] = v114
		var v126 uint64
		if v56 != 0 {
			v126 = v125
		} else {
			v126 = v124
		}
		vals[126] = v126
		var v138 uint64
		if v56 != 0 {
			v138 = v137
		} else {
			v138 = v136
		}
		vals[138] = v138
		var v149 uint64
		if v56 != 0 {
			v149 = v148
		} else {
			v149 = v147
		}
		vals[149] = v149
		var v161 uint64
		if v56 != 0 {
			v161 = v160
		} else {
			v161 = v159
		}
		vals[161] = v161
		var v173 uint64
		if v56 != 0 {
			v173 = v172
		} else {
			v173 = v171
		}
		vals[173] = v173
		var v185 uint64
		if v56 != 0 {
			v185 = v184
		} else {
			v185 = v183
		}
		vals[185] = v185
		var v198 uint64
		if v56 != 0 {
			v198 = v197
		} else {
			v198 = v196
		}
		vals[198] = v198
		var v199 uint64
		if v10 == 0x6 {
			v199 = 1
		}
		vals[199] = v199
		var v200 uint64
		if v65 == 0x1 {
			v200 = 1
		}
		vals[200] = v200
		v201 := v64 & v200
		vals[201] = v201
		var v205 uint64
		if v201 != 0 {
			v205 = v204
		} else {
			v205 = v203
		}
		vals[205] = v205
		var v206 uint64
		if v65 == 0x2 {
			v206 = 1
		}
		vals[206] = v206
		v207 := v18 & v206
		vals[207] = v207
		var v210 uint64
		if v207 != 0 {
			v210 = v209
		} else {
			v210 = v208
		}
		vals[210] = v210
		var v211 uint64
		if v65 == 0x3 {
			v211 = 1
		}
		vals[211] = v211
		v212 := v20 & v211
		vals[212] = v212
		var v215 uint64
		if v212 != 0 {
			v215 = v214
		} else {
			v215 = v213
		}
		vals[215] = v215
		var v216 uint64
		if v65 == 0x4 {
			v216 = 1
		}
		vals[216] = v216
		v217 := v36 & v216
		vals[217] = v217
		var v220 uint64
		if v217 != 0 {
			v220 = v219
		} else {
			v220 = v218
		}
		vals[220] = v220
		var v221 uint64
		if v65 == 0x5 {
			v221 = 1
		}
		vals[221] = v221
		v222 := v56 & v221
		vals[222] = v222
		var v225 uint64
		if v222 != 0 {
			v225 = v224
		} else {
			v225 = v223
		}
		vals[225] = v225
		var v226 uint64
		if v65 == 0x6 {
			v226 = 1
		}
		vals[226] = v226
		v227 := v52 & v226
		vals[227] = v227
		var v230 uint64
		if v227 != 0 {
			v230 = v229
		} else {
			v230 = v228
		}
		vals[230] = v230
		v231 := v52 & v200
		vals[231] = v231
		var v234 uint64
		if v231 != 0 {
			v234 = v233
		} else {
			v234 = v232
		}
		vals[234] = v234
		var v237 uint64
		if v27 != 0 {
			v237 = v236
		} else {
			v237 = v235
		}
		vals[237] = v237
		var v240 uint64
		if v27 != 0 {
			v240 = v239
		} else {
			v240 = v238
		}
		vals[240] = v240
		var v243 uint64
		if v27 != 0 {
			v243 = v242
		} else {
			v243 = v241
		}
		vals[243] = v243
		var v246 uint64
		if v38 != 0 {
			v246 = v245
		} else {
			v246 = v244
		}
		vals[246] = v246
		var v249 uint64
		if v38 != 0 {
			v249 = v248
		} else {
			v249 = v247
		}
		vals[249] = v249
		var v252 uint64
		if v38 != 0 {
			v252 = v251
		} else {
			v252 = v250
		}
		vals[252] = v252
	}
	done := vals[199] != 0
	if vals[52] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[196]
		}
	}
	l0 := vals[68] & 0x7ff
	l1 := vals[65] & 0x7
	l2 := vals[22] & 0xfffff
	l3 := vals[34] & 0x3f
	l4 := vals[46] & 0xf
	l5 := vals[80] & 0xffffffffff
	l6 := vals[90] & 0xffffffffff
	l7 := vals[102] & 0xffffffffff
	l8 := vals[114] & 0xffffffffff
	l9 := vals[126] & 0xffffffffff
	l10 := vals[138] & 0xffffffffff
	l11 := vals[149] & 0xffffffffff
	l12 := vals[161] & 0xffffffffff
	l13 := vals[173] & 0xffffffffff
	l14 := vals[185] & 0xffffffffff
	l15 := vals[198] & 0xffffffff
	l16 := vals[205] & 0xffffff
	l17 := vals[210] & 0xffffff
	l18 := vals[215] & 0xffffff
	l19 := vals[220] & 0xffffff
	l20 := vals[225] & 0xffffff
	l21 := vals[230] & 0xffffff
	l22 := vals[234] & 0xffffff
	l23 := vals[237] & 0xffffff
	l24 := vals[240] & 0xffffff
	l25 := vals[243] & 0xffffff
	l26 := vals[246] & 0xffffff
	l27 := vals[249] & 0xffffff
	l28 := vals[252] & 0xffffff
	vals[0] = l0
	vals[10] = l1
	vals[11] = l2
	vals[28] = l3
	vals[40] = l4
	vals[78] = l5
	vals[88] = l6
	vals[100] = l7
	vals[112] = l8
	vals[124] = l9
	vals[136] = l10
	vals[147] = l11
	vals[159] = l12
	vals[171] = l13
	vals[183] = l14
	vals[196] = l15
	vals[203] = l16
	vals[208] = l17
	vals[213] = l18
	vals[218] = l19
	vals[223] = l20
	vals[228] = l21
	vals[232] = l22
	vals[235] = l23
	vals[238] = l24
	vals[241] = l25
	vals[244] = l26
	vals[247] = l27
	vals[250] = l28
	return cycles + 1, done
}

func step_djpeg_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[221]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v19 := vals[19]
	v25 := vals[25]
	v69 := vals[69]
	v77 := vals[77]
	v84 := vals[84]
	v92 := vals[92]
	v100 := vals[100]
	v108 := vals[108]
	v116 := vals[116]
	v123 := vals[123]
	v131 := vals[131]
	v139 := vals[139]
	v147 := vals[147]
	v168 := vals[168]
	v174 := vals[174]
	v179 := vals[179]
	v184 := vals[184]
	v189 := vals[189]
	v194 := vals[194]
	v199 := vals[199]
	v203 := vals[203]
	v206 := vals[206]
	v209 := vals[209]
	v212 := vals[212]
	v215 := vals[215]
	v218 := vals[218]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v57 uint64
		if v19 != 0x0 {
			v57 = 1
		}
		v59 := (v19 - 0x1) & 0x3f
		var v60 uint64
		if v57 != 0 {
			v60 = v59
		} else {
			v60 = v19
		}
		var v64 uint64
		if v25 != 0x0 {
			v64 = 1
		}
		v66 := (v25 - 0x1) & 0xf
		var v67 uint64
		if v64 != 0 {
			v67 = v66
		} else {
			v67 = v25
		}
		switch v1 {
		case 0x0:
			v172 := (v168 + 0x1) & 0xffffff
			v6 := v0
			v50 := v13
			v51 := v50
			v61 := v60
			v68 := v67
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v172
			v178 := v174
			v183 := v179
			v188 := v184
			v193 := v189
			v198 := v194
			v202 := v199
			v205 := v203
			v208 := v206
			v211 := v209
			v214 := v212
			v217 := v215
			v220 := v218
			n0 := v6
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = 0x1
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		case 0x1:
			var v40 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := (v40 >> 6)
			v44 := v42 & 0xfffff
			v177 := (v174 + 0x1) & 0xffffff
			v6 := v0
			v51 := v44
			v61 := v60
			v68 := v67
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v168
			v178 := v177
			v183 := v179
			v188 := v184
			v193 := v189
			v198 := v194
			v202 := v199
			v205 := v203
			v208 := v206
			v211 := v209
			v214 := v212
			v217 := v215
			v220 := v218
			n0 := v6
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = 0x2
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		case 0x2:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v40 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v46 := v13 & 0x1
			v48 := (v46 + 0x1) & 0x3
			var v49 uint64
			if sh := v48; sh < 64 {
				v49 = (v13 >> sh) & 0xfffff
			}
			v54 := v40 & 0x3f
			v56 := (v54 >> 1)
			v182 := (v179 + 0x1) & 0xffffff
			v204 := (v203 + 0x1) & 0xffffff
			v207 := (v206 + v56) & 0xffffff
			v210 := (v209 + v19) & 0xffffff
			v6 := v0
			var v17 uint64
			if v15 != 0 {
				v17 = 0x3
			} else {
				v17 = 0x2
			}
			v37 := v17
			v38 := v37
			v39 := v38
			v50 := v49
			v51 := v50
			v52 := v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v68 := v67
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v168
			v178 := v174
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			v188 := v184
			v193 := v189
			v198 := v194
			v202 := v199
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			v214 := v212
			v217 := v215
			v220 := v218
			n0 := v6
			n1 := v39
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = n1
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		case 0x3:
			var v21 uint64
			if v19 == 0x0 {
				v21 = 1
			}
			v187 := (v184 + 0x1) & 0xffffff
			v213 := (v212 + 0x1) & 0xffffff
			v216 := (v215 + 0xc) & 0xffffff
			v219 := (v218 + v25) & 0xffffff
			v6 := v0
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x3
			}
			v36 := v23
			v37 := v36
			v38 := v37
			v39 := v38
			v50 := v13
			v51 := v50
			v61 := v60
			v62 := v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			v173 := v168
			v178 := v174
			v183 := v179
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			v193 := v189
			v198 := v194
			v202 := v199
			v205 := v203
			v208 := v206
			v211 := v209
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			n0 := v6
			n1 := v39
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = n1
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		case 0x4:
			var v27 uint64
			if v25 == 0x0 {
				v27 = 1
			}
			var v40 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := (v40 >> 6)
			v44 := v42 & 0xfffff
			v54 := v40 & 0x3f
			v71 := v44
			v73 := (v71 + 0x1) & 0xffffffffff
			v74 := (v71 * v73) & 0xffffffffff
			v75 := (v69 + v74) & 0xffffffffff
			v78 := (v71 << 1) & 0xffffffffff
			v80 := (v78 + 0x3) & 0xffffffffff
			v81 := (v78 * v80) & 0xffffffffff
			v82 := (v77 + v81) & 0xffffffffff
			v86 := (v71 << 2) & 0xffffffffff
			v88 := (v86 + 0x5) & 0xffffffffff
			v89 := (v86 * v88) & 0xffffffffff
			v90 := (v84 + v89) & 0xffffffffff
			v94 := (v71 << 3) & 0xffffffffff
			v96 := (v94 + 0x7) & 0xffffffffff
			v97 := (v94 * v96) & 0xffffffffff
			v98 := (v92 + v97) & 0xffffffffff
			v102 := (v71 << 4) & 0xffffffffff
			v104 := (v102 + 0x9) & 0xffffffffff
			v105 := (v102 * v104) & 0xffffffffff
			v106 := (v100 + v105) & 0xffffffffff
			v110 := (v71 << 5) & 0xffffffffff
			v112 := (v110 + 0xb) & 0xffffffffff
			v113 := (v110 * v112) & 0xffffffffff
			v114 := (v108 + v113) & 0xffffffffff
			v117 := (v71 << 6) & 0xffffffffff
			v119 := (v117 + 0xd) & 0xffffffffff
			v120 := (v117 * v119) & 0xffffffffff
			v121 := (v116 + v120) & 0xffffffffff
			v125 := (v71 << 7) & 0xffffffffff
			v127 := (v125 + 0xf) & 0xffffffffff
			v128 := (v125 * v127) & 0xffffffffff
			v129 := (v123 + v128) & 0xffffffffff
			v133 := (v71 << 8) & 0xffffffffff
			v135 := (v133 + 0x11) & 0xffffffffff
			v136 := (v133 * v135) & 0xffffffffff
			v137 := (v131 + v136) & 0xffffffffff
			v141 := (v71 << 9) & 0xffffffffff
			v143 := (v141 + 0x13) & 0xffffffffff
			v144 := (v141 * v143) & 0xffffffffff
			v145 := (v139 + v144) & 0xffffffffff
			v148 := (v54 * v54) & 0xffffffff
			v150 := v44 & 0xffff
			v151 := (v148 + v150) & 0xffffffff
			v152 := (v151 * v151) & 0xffffffff
			v153 := (v152 >> 3)
			v154 := (v69 ^ v77)
			v155 := (v154 ^ v84)
			v156 := (v155 ^ v92)
			v157 := (v156 ^ v100)
			v158 := (v157 ^ v108)
			v159 := (v158 ^ v116)
			v160 := (v159 ^ v123)
			v161 := (v160 ^ v131)
			v162 := (v161 ^ v139)
			v164 := v162 & 0xffffffff
			v165 := (v153 ^ v164)
			v166 := (v147 + v165) & 0xffffffff
			v192 := (v189 + 0x1) & 0xffffff
			v6 := v0
			var v28 uint64
			if v27 != 0 {
				v28 = 0x5
			} else {
				v28 = 0x4
			}
			v35 := v28
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v50 := v13
			v51 := v50
			v61 := v60
			v68 := v67
			v76 := v75
			v83 := v82
			v91 := v90
			v99 := v98
			v107 := v106
			v115 := v114
			v122 := v121
			v130 := v129
			v138 := v137
			v146 := v145
			v167 := v166
			v173 := v168
			v178 := v174
			v183 := v179
			v188 := v184
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			v198 := v194
			v202 := v199
			v205 := v203
			v208 := v206
			v211 := v209
			v214 := v212
			v217 := v215
			v220 := v218
			n0 := v6
			n1 := v39
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = n1
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		case 0x5:
			v5 := (v0 + 0x1) & 0x7ff
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x7ff
			}
			var v31 uint64
			if v30 <= v0 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x6
			} else {
				v33 = 0x1
			}
			v197 := (v194 + 0x1) & 0xffffff
			v201 := (v199 + 0x1) & 0xffffff
			v6 := v5
			v34 := v33
			v35 := v34
			v36 := v35
			v37 := v36
			v38 := v37
			v39 := v38
			v50 := v13
			v51 := v50
			v61 := v60
			v68 := v67
			v76 := v69
			v83 := v77
			v91 := v84
			v99 := v92
			v107 := v100
			v115 := v108
			v122 := v116
			v130 := v123
			v138 := v131
			v146 := v139
			v167 := v147
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v173 := v168
			v178 := v174
			v183 := v179
			v188 := v184
			v193 := v189
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			v205 := v203
			v208 := v206
			v211 := v209
			v214 := v212
			v217 := v215
			v220 := v218
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v147
			}
			n0 := v6
			n1 := v39
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = n1
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		case 0x6:
			break loop
		default:
			v5 := (v0 + 0x1) & 0x7ff
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v21 uint64
			if v19 == 0x0 {
				v21 = 1
			}
			var v27 uint64
			if v25 == 0x0 {
				v27 = 1
			}
			var v30 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v30 = m0[addr] & 0x7ff
			}
			var v31 uint64
			if v30 <= v0 {
				v31 = 1
			}
			var v33 uint64
			if v31 != 0 {
				v33 = 0x6
			} else {
				v33 = 0x1
			}
			var v40 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := (v40 >> 6)
			v44 := v42 & 0xfffff
			v46 := v13 & 0x1
			v48 := (v46 + 0x1) & 0x3
			var v49 uint64
			if sh := v48; sh < 64 {
				v49 = (v13 >> sh) & 0xfffff
			}
			v54 := v40 & 0x3f
			v56 := (v54 >> 1)
			v71 := v44
			v73 := (v71 + 0x1) & 0xffffffffff
			v74 := (v71 * v73) & 0xffffffffff
			v75 := (v69 + v74) & 0xffffffffff
			v78 := (v71 << 1) & 0xffffffffff
			v80 := (v78 + 0x3) & 0xffffffffff
			v81 := (v78 * v80) & 0xffffffffff
			v82 := (v77 + v81) & 0xffffffffff
			v86 := (v71 << 2) & 0xffffffffff
			v88 := (v86 + 0x5) & 0xffffffffff
			v89 := (v86 * v88) & 0xffffffffff
			v90 := (v84 + v89) & 0xffffffffff
			v94 := (v71 << 3) & 0xffffffffff
			v96 := (v94 + 0x7) & 0xffffffffff
			v97 := (v94 * v96) & 0xffffffffff
			v98 := (v92 + v97) & 0xffffffffff
			v102 := (v71 << 4) & 0xffffffffff
			v104 := (v102 + 0x9) & 0xffffffffff
			v105 := (v102 * v104) & 0xffffffffff
			v106 := (v100 + v105) & 0xffffffffff
			v110 := (v71 << 5) & 0xffffffffff
			v112 := (v110 + 0xb) & 0xffffffffff
			v113 := (v110 * v112) & 0xffffffffff
			v114 := (v108 + v113) & 0xffffffffff
			v117 := (v71 << 6) & 0xffffffffff
			v119 := (v117 + 0xd) & 0xffffffffff
			v120 := (v117 * v119) & 0xffffffffff
			v121 := (v116 + v120) & 0xffffffffff
			v125 := (v71 << 7) & 0xffffffffff
			v127 := (v125 + 0xf) & 0xffffffffff
			v128 := (v125 * v127) & 0xffffffffff
			v129 := (v123 + v128) & 0xffffffffff
			v133 := (v71 << 8) & 0xffffffffff
			v135 := (v133 + 0x11) & 0xffffffffff
			v136 := (v133 * v135) & 0xffffffffff
			v137 := (v131 + v136) & 0xffffffffff
			v141 := (v71 << 9) & 0xffffffffff
			v143 := (v141 + 0x13) & 0xffffffffff
			v144 := (v141 * v143) & 0xffffffffff
			v145 := (v139 + v144) & 0xffffffffff
			v148 := (v54 * v54) & 0xffffffff
			v150 := v44 & 0xffff
			v151 := (v148 + v150) & 0xffffffff
			v152 := (v151 * v151) & 0xffffffff
			v153 := (v152 >> 3)
			v154 := (v69 ^ v77)
			v155 := (v154 ^ v84)
			v156 := (v155 ^ v92)
			v157 := (v156 ^ v100)
			v158 := (v157 ^ v108)
			v159 := (v158 ^ v116)
			v160 := (v159 ^ v123)
			v161 := (v160 ^ v131)
			v162 := (v161 ^ v139)
			v164 := v162 & 0xffffffff
			v165 := (v153 ^ v164)
			v166 := (v147 + v165) & 0xffffffff
			v172 := (v168 + 0x1) & 0xffffff
			v177 := (v174 + 0x1) & 0xffffff
			v182 := (v179 + 0x1) & 0xffffff
			v187 := (v184 + 0x1) & 0xffffff
			v192 := (v189 + 0x1) & 0xffffff
			v197 := (v194 + 0x1) & 0xffffff
			v201 := (v199 + 0x1) & 0xffffff
			v204 := (v203 + 0x1) & 0xffffff
			v207 := (v206 + v56) & 0xffffff
			v210 := (v209 + v19) & 0xffffff
			v213 := (v212 + 0x1) & 0xffffff
			v216 := (v215 + 0xc) & 0xffffff
			v219 := (v218 + v25) & 0xffffff
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
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = v1
			}
			var v24 uint64
			if v1 == 0x4 {
				v24 = 1
			}
			var v28 uint64
			if v27 != 0 {
				v28 = 0x5
			} else {
				v28 = v1
			}
			var v34 uint64
			if v3 != 0 {
				v34 = v33
			} else {
				v34 = v1
			}
			var v35 uint64
			if v24 != 0 {
				v35 = v28
			} else {
				v35 = v34
			}
			var v36 uint64
			if v18 != 0 {
				v36 = v23
			} else {
				v36 = v35
			}
			var v37 uint64
			if v12 != 0 {
				v37 = v17
			} else {
				v37 = v36
			}
			var v38 uint64
			if v10 != 0 {
				v38 = 0x2
			} else {
				v38 = v37
			}
			var v39 uint64
			if v8 != 0 {
				v39 = 0x1
			} else {
				v39 = v38
			}
			var v50 uint64
			if v12 != 0 {
				v50 = v49
			} else {
				v50 = v13
			}
			var v51 uint64
			if v10 != 0 {
				v51 = v44
			} else {
				v51 = v50
			}
			v52 := v12 & v15
			var v61 uint64
			if v52 != 0 {
				v61 = v56
			} else {
				v61 = v60
			}
			v62 := v18 & v21
			var v68 uint64
			if v62 != 0 {
				v68 = 0xc
			} else {
				v68 = v67
			}
			var v76 uint64
			if v24 != 0 {
				v76 = v75
			} else {
				v76 = v69
			}
			var v83 uint64
			if v24 != 0 {
				v83 = v82
			} else {
				v83 = v77
			}
			var v91 uint64
			if v24 != 0 {
				v91 = v90
			} else {
				v91 = v84
			}
			var v99 uint64
			if v24 != 0 {
				v99 = v98
			} else {
				v99 = v92
			}
			var v107 uint64
			if v24 != 0 {
				v107 = v106
			} else {
				v107 = v100
			}
			var v115 uint64
			if v24 != 0 {
				v115 = v114
			} else {
				v115 = v108
			}
			var v122 uint64
			if v24 != 0 {
				v122 = v121
			} else {
				v122 = v116
			}
			var v130 uint64
			if v24 != 0 {
				v130 = v129
			} else {
				v130 = v123
			}
			var v138 uint64
			if v24 != 0 {
				v138 = v137
			} else {
				v138 = v131
			}
			var v146 uint64
			if v24 != 0 {
				v146 = v145
			} else {
				v146 = v139
			}
			var v167 uint64
			if v24 != 0 {
				v167 = v166
			} else {
				v167 = v147
			}
			var v169 uint64
			if v39 == 0x1 {
				v169 = 1
			}
			v170 := v8 & v169
			var v173 uint64
			if v170 != 0 {
				v173 = v172
			} else {
				v173 = v168
			}
			var v175 uint64
			if v39 == 0x2 {
				v175 = 1
			}
			v176 := v10 & v175
			var v178 uint64
			if v176 != 0 {
				v178 = v177
			} else {
				v178 = v174
			}
			var v180 uint64
			if v39 == 0x3 {
				v180 = 1
			}
			v181 := v12 & v180
			var v183 uint64
			if v181 != 0 {
				v183 = v182
			} else {
				v183 = v179
			}
			var v185 uint64
			if v39 == 0x4 {
				v185 = 1
			}
			v186 := v18 & v185
			var v188 uint64
			if v186 != 0 {
				v188 = v187
			} else {
				v188 = v184
			}
			var v190 uint64
			if v39 == 0x5 {
				v190 = 1
			}
			v191 := v24 & v190
			var v193 uint64
			if v191 != 0 {
				v193 = v192
			} else {
				v193 = v189
			}
			var v195 uint64
			if v39 == 0x6 {
				v195 = 1
			}
			v196 := v3 & v195
			var v198 uint64
			if v196 != 0 {
				v198 = v197
			} else {
				v198 = v194
			}
			v200 := v3 & v169
			var v202 uint64
			if v200 != 0 {
				v202 = v201
			} else {
				v202 = v199
			}
			var v205 uint64
			if v52 != 0 {
				v205 = v204
			} else {
				v205 = v203
			}
			var v208 uint64
			if v52 != 0 {
				v208 = v207
			} else {
				v208 = v206
			}
			var v211 uint64
			if v52 != 0 {
				v211 = v210
			} else {
				v211 = v209
			}
			var v214 uint64
			if v62 != 0 {
				v214 = v213
			} else {
				v214 = v212
			}
			var v217 uint64
			if v62 != 0 {
				v217 = v216
			} else {
				v217 = v215
			}
			var v220 uint64
			if v62 != 0 {
				v220 = v219
			} else {
				v220 = v218
			}
			var v221 uint64
			if v1 == 0x6 {
				v221 = 1
			}
			if v221 != 0 {
				break loop
			}
			if v3 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v147
				}
			}
			n0 := v6
			n1 := v39
			n2 := v51
			n3 := v61
			n4 := v68
			n5 := v76
			n6 := v83
			n7 := v91
			n8 := v99
			n9 := v107
			n10 := v115
			n11 := v122
			n12 := v130
			n13 := v138
			n14 := v146
			n15 := v167
			n16 := v173
			n17 := v178
			n18 := v183
			n19 := v188
			n20 := v193
			n21 := v198
			n22 := v202
			n23 := v205
			n24 := v208
			n25 := v211
			n26 := v214
			n27 := v217
			n28 := v220
			v0 = n0
			v1 = n1
			v13 = n2
			v19 = n3
			v25 = n4
			v69 = n5
			v77 = n6
			v84 = n7
			v92 = n8
			v100 = n9
			v108 = n10
			v116 = n11
			v123 = n12
			v131 = n13
			v139 = n14
			v147 = n15
			v168 = n16
			v174 = n17
			v179 = n18
			v184 = n19
			v189 = n20
			v194 = n21
			v199 = n22
			v203 = n23
			v206 = n24
			v209 = n25
			v212 = n26
			v215 = n27
			v218 = n28
		}
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[19] = v19
	vals[25] = v25
	vals[69] = v69
	vals[77] = v77
	vals[84] = v84
	vals[92] = v92
	vals[100] = v100
	vals[108] = v108
	vals[116] = v116
	vals[123] = v123
	vals[131] = v131
	vals[139] = v139
	vals[147] = v147
	vals[168] = v168
	vals[174] = v174
	vals[179] = v179
	vals[184] = v184
	vals[189] = v189
	vals[194] = v194
	vals[199] = v199
	vals[203] = v203
	vals[206] = v206
	vals[209] = v209
	vals[212] = v212
	vals[215] = v215
	vals[218] = v218
	v5 := (v0 + 0x1) & 0x7ff
	vals[5] = v5
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v21 uint64
	if v19 == 0x0 {
		v21 = 1
	}
	vals[21] = v21
	var v27 uint64
	if v25 == 0x0 {
		v27 = 1
	}
	vals[27] = v27
	var v30 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v30 = m0[addr] & 0x7ff
	}
	vals[30] = v30
	var v31 uint64
	if v30 <= v0 {
		v31 = 1
	}
	vals[31] = v31
	var v33 uint64
	if v31 != 0 {
		v33 = 0x6
	} else {
		v33 = 0x1
	}
	vals[33] = v33
	var v40 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v40 = m0[addr] & 0x3ffffff
	}
	vals[40] = v40
	v42 := (v40 >> 6)
	vals[42] = v42
	v44 := v42 & 0xfffff
	vals[44] = v44
	v46 := v13 & 0x1
	vals[46] = v46
	v48 := (v46 + 0x1) & 0x3
	vals[48] = v48
	var v49 uint64
	if sh := v48; sh < 64 {
		v49 = (v13 >> sh) & 0xfffff
	}
	vals[49] = v49
	v54 := v40 & 0x3f
	vals[54] = v54
	v56 := (v54 >> 1)
	vals[56] = v56
	var v57 uint64
	if v19 != 0x0 {
		v57 = 1
	}
	vals[57] = v57
	v59 := (v19 - 0x1) & 0x3f
	vals[59] = v59
	var v60 uint64
	if v57 != 0 {
		v60 = v59
	} else {
		v60 = v19
	}
	vals[60] = v60
	var v64 uint64
	if v25 != 0x0 {
		v64 = 1
	}
	vals[64] = v64
	v66 := (v25 - 0x1) & 0xf
	vals[66] = v66
	var v67 uint64
	if v64 != 0 {
		v67 = v66
	} else {
		v67 = v25
	}
	vals[67] = v67
	v71 := v44
	vals[71] = v71
	v73 := (v71 + 0x1) & 0xffffffffff
	vals[73] = v73
	v74 := (v71 * v73) & 0xffffffffff
	vals[74] = v74
	v75 := (v69 + v74) & 0xffffffffff
	vals[75] = v75
	v78 := (v71 << 1) & 0xffffffffff
	vals[78] = v78
	v80 := (v78 + 0x3) & 0xffffffffff
	vals[80] = v80
	v81 := (v78 * v80) & 0xffffffffff
	vals[81] = v81
	v82 := (v77 + v81) & 0xffffffffff
	vals[82] = v82
	v86 := (v71 << 2) & 0xffffffffff
	vals[86] = v86
	v88 := (v86 + 0x5) & 0xffffffffff
	vals[88] = v88
	v89 := (v86 * v88) & 0xffffffffff
	vals[89] = v89
	v90 := (v84 + v89) & 0xffffffffff
	vals[90] = v90
	v94 := (v71 << 3) & 0xffffffffff
	vals[94] = v94
	v96 := (v94 + 0x7) & 0xffffffffff
	vals[96] = v96
	v97 := (v94 * v96) & 0xffffffffff
	vals[97] = v97
	v98 := (v92 + v97) & 0xffffffffff
	vals[98] = v98
	v102 := (v71 << 4) & 0xffffffffff
	vals[102] = v102
	v104 := (v102 + 0x9) & 0xffffffffff
	vals[104] = v104
	v105 := (v102 * v104) & 0xffffffffff
	vals[105] = v105
	v106 := (v100 + v105) & 0xffffffffff
	vals[106] = v106
	v110 := (v71 << 5) & 0xffffffffff
	vals[110] = v110
	v112 := (v110 + 0xb) & 0xffffffffff
	vals[112] = v112
	v113 := (v110 * v112) & 0xffffffffff
	vals[113] = v113
	v114 := (v108 + v113) & 0xffffffffff
	vals[114] = v114
	v117 := (v71 << 6) & 0xffffffffff
	vals[117] = v117
	v119 := (v117 + 0xd) & 0xffffffffff
	vals[119] = v119
	v120 := (v117 * v119) & 0xffffffffff
	vals[120] = v120
	v121 := (v116 + v120) & 0xffffffffff
	vals[121] = v121
	v125 := (v71 << 7) & 0xffffffffff
	vals[125] = v125
	v127 := (v125 + 0xf) & 0xffffffffff
	vals[127] = v127
	v128 := (v125 * v127) & 0xffffffffff
	vals[128] = v128
	v129 := (v123 + v128) & 0xffffffffff
	vals[129] = v129
	v133 := (v71 << 8) & 0xffffffffff
	vals[133] = v133
	v135 := (v133 + 0x11) & 0xffffffffff
	vals[135] = v135
	v136 := (v133 * v135) & 0xffffffffff
	vals[136] = v136
	v137 := (v131 + v136) & 0xffffffffff
	vals[137] = v137
	v141 := (v71 << 9) & 0xffffffffff
	vals[141] = v141
	v143 := (v141 + 0x13) & 0xffffffffff
	vals[143] = v143
	v144 := (v141 * v143) & 0xffffffffff
	vals[144] = v144
	v145 := (v139 + v144) & 0xffffffffff
	vals[145] = v145
	v148 := (v54 * v54) & 0xffffffff
	vals[148] = v148
	v150 := v44 & 0xffff
	vals[150] = v150
	v151 := (v148 + v150) & 0xffffffff
	vals[151] = v151
	v152 := (v151 * v151) & 0xffffffff
	vals[152] = v152
	v153 := (v152 >> 3)
	vals[153] = v153
	v154 := (v69 ^ v77)
	vals[154] = v154
	v155 := (v154 ^ v84)
	vals[155] = v155
	v156 := (v155 ^ v92)
	vals[156] = v156
	v157 := (v156 ^ v100)
	vals[157] = v157
	v158 := (v157 ^ v108)
	vals[158] = v158
	v159 := (v158 ^ v116)
	vals[159] = v159
	v160 := (v159 ^ v123)
	vals[160] = v160
	v161 := (v160 ^ v131)
	vals[161] = v161
	v162 := (v161 ^ v139)
	vals[162] = v162
	v164 := v162 & 0xffffffff
	vals[164] = v164
	v165 := (v153 ^ v164)
	vals[165] = v165
	v166 := (v147 + v165) & 0xffffffff
	vals[166] = v166
	v172 := (v168 + 0x1) & 0xffffff
	vals[172] = v172
	v177 := (v174 + 0x1) & 0xffffff
	vals[177] = v177
	v182 := (v179 + 0x1) & 0xffffff
	vals[182] = v182
	v187 := (v184 + 0x1) & 0xffffff
	vals[187] = v187
	v192 := (v189 + 0x1) & 0xffffff
	vals[192] = v192
	v197 := (v194 + 0x1) & 0xffffff
	vals[197] = v197
	v201 := (v199 + 0x1) & 0xffffff
	vals[201] = v201
	v204 := (v203 + 0x1) & 0xffffff
	vals[204] = v204
	v207 := (v206 + v56) & 0xffffff
	vals[207] = v207
	v210 := (v209 + v19) & 0xffffff
	vals[210] = v210
	v213 := (v212 + 0x1) & 0xffffff
	vals[213] = v213
	v216 := (v215 + 0xc) & 0xffffff
	vals[216] = v216
	v219 := (v218 + v25) & 0xffffff
	vals[219] = v219
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x0
		}
		vals[23] = v23
		vals[24] = 0x0
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x0
		}
		vals[28] = v28
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x0
		vals[37] = 0x0
		vals[38] = 0x0
		vals[39] = 0x1
		v50 := v13
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		vals[52] = 0x0
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v68 := v67
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v83 := v77
		vals[83] = v83
		v91 := v84
		vals[91] = v91
		v99 := v92
		vals[99] = v99
		v107 := v100
		vals[107] = v107
		v115 := v108
		vals[115] = v115
		v122 := v116
		vals[122] = v122
		v130 := v123
		vals[130] = v130
		v138 := v131
		vals[138] = v138
		v146 := v139
		vals[146] = v146
		v167 := v147
		vals[167] = v167
		vals[169] = 0x1
		vals[170] = 0x1
		v173 := v172
		vals[173] = v173
		vals[175] = 0x0
		vals[176] = 0x0
		v178 := v174
		vals[178] = v178
		vals[180] = 0x0
		vals[181] = 0x0
		v183 := v179
		vals[183] = v183
		vals[185] = 0x0
		vals[186] = 0x0
		v188 := v184
		vals[188] = v188
		vals[190] = 0x0
		vals[191] = 0x0
		v193 := v189
		vals[193] = v193
		vals[195] = 0x0
		vals[196] = 0x0
		v198 := v194
		vals[198] = v198
		vals[200] = 0x0
		v202 := v199
		vals[202] = v202
		v205 := v203
		vals[205] = v205
		v208 := v206
		vals[208] = v208
		v211 := v209
		vals[211] = v211
		v214 := v212
		vals[214] = v214
		v217 := v215
		vals[217] = v217
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x1
		}
		vals[23] = v23
		vals[24] = 0x0
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x1
		}
		vals[28] = v28
		vals[34] = 0x1
		vals[35] = 0x1
		vals[36] = 0x1
		vals[37] = 0x1
		vals[38] = 0x2
		vals[39] = 0x2
		v50 := v13
		vals[50] = v50
		v51 := v44
		vals[51] = v51
		vals[52] = 0x0
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v68 := v67
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v83 := v77
		vals[83] = v83
		v91 := v84
		vals[91] = v91
		v99 := v92
		vals[99] = v99
		v107 := v100
		vals[107] = v107
		v115 := v108
		vals[115] = v115
		v122 := v116
		vals[122] = v122
		v130 := v123
		vals[130] = v130
		v138 := v131
		vals[138] = v138
		v146 := v139
		vals[146] = v146
		v167 := v147
		vals[167] = v167
		vals[169] = 0x0
		vals[170] = 0x0
		v173 := v168
		vals[173] = v173
		vals[175] = 0x1
		vals[176] = 0x1
		v178 := v177
		vals[178] = v178
		vals[180] = 0x0
		vals[181] = 0x0
		v183 := v179
		vals[183] = v183
		vals[185] = 0x0
		vals[186] = 0x0
		v188 := v184
		vals[188] = v188
		vals[190] = 0x0
		vals[191] = 0x0
		v193 := v189
		vals[193] = v193
		vals[195] = 0x0
		vals[196] = 0x0
		v198 := v194
		vals[198] = v198
		vals[200] = 0x0
		v202 := v199
		vals[202] = v202
		v205 := v203
		vals[205] = v205
		v208 := v206
		vals[208] = v208
		v211 := v209
		vals[211] = v211
		v214 := v212
		vals[214] = v214
		v217 := v215
		vals[217] = v217
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x2
		}
		vals[23] = v23
		vals[24] = 0x0
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x2
		}
		vals[28] = v28
		vals[34] = 0x2
		vals[35] = 0x2
		vals[36] = 0x2
		v37 := v17
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v50 := v49
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		v52 := v15
		vals[52] = v52
		var v61 uint64
		if v52 != 0 {
			v61 = v56
		} else {
			v61 = v60
		}
		vals[61] = v61
		vals[62] = 0x0
		v68 := v67
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v83 := v77
		vals[83] = v83
		v91 := v84
		vals[91] = v91
		v99 := v92
		vals[99] = v99
		v107 := v100
		vals[107] = v107
		v115 := v108
		vals[115] = v115
		v122 := v116
		vals[122] = v122
		v130 := v123
		vals[130] = v130
		v138 := v131
		vals[138] = v138
		v146 := v139
		vals[146] = v146
		v167 := v147
		vals[167] = v167
		var v169 uint64
		if v39 == 0x1 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v168
		vals[173] = v173
		var v175 uint64
		if v39 == 0x2 {
			v175 = 1
		}
		vals[175] = v175
		vals[176] = 0x0
		v178 := v174
		vals[178] = v178
		var v180 uint64
		if v39 == 0x3 {
			v180 = 1
		}
		vals[180] = v180
		v181 := v180
		vals[181] = v181
		var v183 uint64
		if v181 != 0 {
			v183 = v182
		} else {
			v183 = v179
		}
		vals[183] = v183
		var v185 uint64
		if v39 == 0x4 {
			v185 = 1
		}
		vals[185] = v185
		vals[186] = 0x0
		v188 := v184
		vals[188] = v188
		var v190 uint64
		if v39 == 0x5 {
			v190 = 1
		}
		vals[190] = v190
		vals[191] = 0x0
		v193 := v189
		vals[193] = v193
		var v195 uint64
		if v39 == 0x6 {
			v195 = 1
		}
		vals[195] = v195
		vals[196] = 0x0
		v198 := v194
		vals[198] = v198
		vals[200] = 0x0
		v202 := v199
		vals[202] = v202
		var v205 uint64
		if v52 != 0 {
			v205 = v204
		} else {
			v205 = v203
		}
		vals[205] = v205
		var v208 uint64
		if v52 != 0 {
			v208 = v207
		} else {
			v208 = v206
		}
		vals[208] = v208
		var v211 uint64
		if v52 != 0 {
			v211 = v210
		} else {
			v211 = v209
		}
		vals[211] = v211
		v214 := v212
		vals[214] = v214
		v217 := v215
		vals[217] = v217
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x3
		}
		vals[23] = v23
		vals[24] = 0x0
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x3
		}
		vals[28] = v28
		vals[34] = 0x3
		vals[35] = 0x3
		v36 := v23
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v50 := v13
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		vals[52] = 0x0
		v61 := v60
		vals[61] = v61
		v62 := v21
		vals[62] = v62
		var v68 uint64
		if v62 != 0 {
			v68 = 0xc
		} else {
			v68 = v67
		}
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v83 := v77
		vals[83] = v83
		v91 := v84
		vals[91] = v91
		v99 := v92
		vals[99] = v99
		v107 := v100
		vals[107] = v107
		v115 := v108
		vals[115] = v115
		v122 := v116
		vals[122] = v122
		v130 := v123
		vals[130] = v130
		v138 := v131
		vals[138] = v138
		v146 := v139
		vals[146] = v146
		v167 := v147
		vals[167] = v167
		var v169 uint64
		if v39 == 0x1 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v168
		vals[173] = v173
		var v175 uint64
		if v39 == 0x2 {
			v175 = 1
		}
		vals[175] = v175
		vals[176] = 0x0
		v178 := v174
		vals[178] = v178
		var v180 uint64
		if v39 == 0x3 {
			v180 = 1
		}
		vals[180] = v180
		vals[181] = 0x0
		v183 := v179
		vals[183] = v183
		var v185 uint64
		if v39 == 0x4 {
			v185 = 1
		}
		vals[185] = v185
		v186 := v185
		vals[186] = v186
		var v188 uint64
		if v186 != 0 {
			v188 = v187
		} else {
			v188 = v184
		}
		vals[188] = v188
		var v190 uint64
		if v39 == 0x5 {
			v190 = 1
		}
		vals[190] = v190
		vals[191] = 0x0
		v193 := v189
		vals[193] = v193
		var v195 uint64
		if v39 == 0x6 {
			v195 = 1
		}
		vals[195] = v195
		vals[196] = 0x0
		v198 := v194
		vals[198] = v198
		vals[200] = 0x0
		v202 := v199
		vals[202] = v202
		v205 := v203
		vals[205] = v205
		v208 := v206
		vals[208] = v208
		v211 := v209
		vals[211] = v211
		var v214 uint64
		if v62 != 0 {
			v214 = v213
		} else {
			v214 = v212
		}
		vals[214] = v214
		var v217 uint64
		if v62 != 0 {
			v217 = v216
		} else {
			v217 = v215
		}
		vals[217] = v217
		var v220 uint64
		if v62 != 0 {
			v220 = v219
		} else {
			v220 = v218
		}
		vals[220] = v220
		vals[221] = 0x0
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x4
		}
		vals[23] = v23
		vals[24] = 0x1
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x4
		}
		vals[28] = v28
		vals[34] = 0x4
		v35 := v28
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v50 := v13
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		vals[52] = 0x0
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v68 := v67
		vals[68] = v68
		v76 := v75
		vals[76] = v76
		v83 := v82
		vals[83] = v83
		v91 := v90
		vals[91] = v91
		v99 := v98
		vals[99] = v99
		v107 := v106
		vals[107] = v107
		v115 := v114
		vals[115] = v115
		v122 := v121
		vals[122] = v122
		v130 := v129
		vals[130] = v130
		v138 := v137
		vals[138] = v138
		v146 := v145
		vals[146] = v146
		v167 := v166
		vals[167] = v167
		var v169 uint64
		if v39 == 0x1 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v168
		vals[173] = v173
		var v175 uint64
		if v39 == 0x2 {
			v175 = 1
		}
		vals[175] = v175
		vals[176] = 0x0
		v178 := v174
		vals[178] = v178
		var v180 uint64
		if v39 == 0x3 {
			v180 = 1
		}
		vals[180] = v180
		vals[181] = 0x0
		v183 := v179
		vals[183] = v183
		var v185 uint64
		if v39 == 0x4 {
			v185 = 1
		}
		vals[185] = v185
		vals[186] = 0x0
		v188 := v184
		vals[188] = v188
		var v190 uint64
		if v39 == 0x5 {
			v190 = 1
		}
		vals[190] = v190
		v191 := v190
		vals[191] = v191
		var v193 uint64
		if v191 != 0 {
			v193 = v192
		} else {
			v193 = v189
		}
		vals[193] = v193
		var v195 uint64
		if v39 == 0x6 {
			v195 = 1
		}
		vals[195] = v195
		vals[196] = 0x0
		v198 := v194
		vals[198] = v198
		vals[200] = 0x0
		v202 := v199
		vals[202] = v202
		v205 := v203
		vals[205] = v205
		v208 := v206
		vals[208] = v208
		v211 := v209
		vals[211] = v211
		v214 := v212
		vals[214] = v214
		v217 := v215
		vals[217] = v217
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x5
		}
		vals[23] = v23
		vals[24] = 0x0
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x5
		}
		vals[28] = v28
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v37 := v36
		vals[37] = v37
		v38 := v37
		vals[38] = v38
		v39 := v38
		vals[39] = v39
		v50 := v13
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		vals[52] = 0x0
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v68 := v67
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v83 := v77
		vals[83] = v83
		v91 := v84
		vals[91] = v91
		v99 := v92
		vals[99] = v99
		v107 := v100
		vals[107] = v107
		v115 := v108
		vals[115] = v115
		v122 := v116
		vals[122] = v122
		v130 := v123
		vals[130] = v130
		v138 := v131
		vals[138] = v138
		v146 := v139
		vals[146] = v146
		v167 := v147
		vals[167] = v167
		var v169 uint64
		if v39 == 0x1 {
			v169 = 1
		}
		vals[169] = v169
		vals[170] = 0x0
		v173 := v168
		vals[173] = v173
		var v175 uint64
		if v39 == 0x2 {
			v175 = 1
		}
		vals[175] = v175
		vals[176] = 0x0
		v178 := v174
		vals[178] = v178
		var v180 uint64
		if v39 == 0x3 {
			v180 = 1
		}
		vals[180] = v180
		vals[181] = 0x0
		v183 := v179
		vals[183] = v183
		var v185 uint64
		if v39 == 0x4 {
			v185 = 1
		}
		vals[185] = v185
		vals[186] = 0x0
		v188 := v184
		vals[188] = v188
		var v190 uint64
		if v39 == 0x5 {
			v190 = 1
		}
		vals[190] = v190
		vals[191] = 0x0
		v193 := v189
		vals[193] = v193
		var v195 uint64
		if v39 == 0x6 {
			v195 = 1
		}
		vals[195] = v195
		v196 := v195
		vals[196] = v196
		var v198 uint64
		if v196 != 0 {
			v198 = v197
		} else {
			v198 = v194
		}
		vals[198] = v198
		v200 := v169
		vals[200] = v200
		var v202 uint64
		if v200 != 0 {
			v202 = v201
		} else {
			v202 = v199
		}
		vals[202] = v202
		v205 := v203
		vals[205] = v205
		v208 := v206
		vals[208] = v208
		v211 := v209
		vals[211] = v211
		v214 := v212
		vals[214] = v214
		v217 := v215
		vals[217] = v217
		v220 := v218
		vals[220] = v220
		vals[221] = 0x0
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = 0x6
		}
		vals[23] = v23
		vals[24] = 0x0
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = 0x6
		}
		vals[28] = v28
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x6
		vals[37] = 0x6
		vals[38] = 0x6
		vals[39] = 0x6
		v50 := v13
		vals[50] = v50
		v51 := v50
		vals[51] = v51
		vals[52] = 0x0
		v61 := v60
		vals[61] = v61
		vals[62] = 0x0
		v68 := v67
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v83 := v77
		vals[83] = v83
		v91 := v84
		vals[91] = v91
		v99 := v92
		vals[99] = v99
		v107 := v100
		vals[107] = v107
		v115 := v108
		vals[115] = v115
		v122 := v116
		vals[122] = v122
		v130 := v123
		vals[130] = v130
		v138 := v131
		vals[138] = v138
		v146 := v139
		vals[146] = v146
		v167 := v147
		vals[167] = v167
		vals[169] = 0x0
		vals[170] = 0x0
		v173 := v168
		vals[173] = v173
		vals[175] = 0x0
		vals[176] = 0x0
		v178 := v174
		vals[178] = v178
		vals[180] = 0x0
		vals[181] = 0x0
		v183 := v179
		vals[183] = v183
		vals[185] = 0x0
		vals[186] = 0x0
		v188 := v184
		vals[188] = v188
		vals[190] = 0x0
		vals[191] = 0x0
		v193 := v189
		vals[193] = v193
		vals[195] = 0x1
		vals[196] = 0x0
		v198 := v194
		vals[198] = v198
		vals[200] = 0x0
		v202 := v199
		vals[202] = v202
		v205 := v203
		vals[205] = v205
		v208 := v206
		vals[208] = v208
		v211 := v209
		vals[211] = v211
		v214 := v212
		vals[214] = v214
		v217 := v215
		vals[217] = v217
		v220 := v218
		vals[220] = v220
		vals[221] = 0x1
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
		var v23 uint64
		if v21 != 0 {
			v23 = 0x4
		} else {
			v23 = v1
		}
		vals[23] = v23
		var v24 uint64
		if v1 == 0x4 {
			v24 = 1
		}
		vals[24] = v24
		var v28 uint64
		if v27 != 0 {
			v28 = 0x5
		} else {
			v28 = v1
		}
		vals[28] = v28
		var v34 uint64
		if v3 != 0 {
			v34 = v33
		} else {
			v34 = v1
		}
		vals[34] = v34
		var v35 uint64
		if v24 != 0 {
			v35 = v28
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v18 != 0 {
			v36 = v23
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v37 uint64
		if v12 != 0 {
			v37 = v17
		} else {
			v37 = v36
		}
		vals[37] = v37
		var v38 uint64
		if v10 != 0 {
			v38 = 0x2
		} else {
			v38 = v37
		}
		vals[38] = v38
		var v39 uint64
		if v8 != 0 {
			v39 = 0x1
		} else {
			v39 = v38
		}
		vals[39] = v39
		var v50 uint64
		if v12 != 0 {
			v50 = v49
		} else {
			v50 = v13
		}
		vals[50] = v50
		var v51 uint64
		if v10 != 0 {
			v51 = v44
		} else {
			v51 = v50
		}
		vals[51] = v51
		v52 := v12 & v15
		vals[52] = v52
		var v61 uint64
		if v52 != 0 {
			v61 = v56
		} else {
			v61 = v60
		}
		vals[61] = v61
		v62 := v18 & v21
		vals[62] = v62
		var v68 uint64
		if v62 != 0 {
			v68 = 0xc
		} else {
			v68 = v67
		}
		vals[68] = v68
		var v76 uint64
		if v24 != 0 {
			v76 = v75
		} else {
			v76 = v69
		}
		vals[76] = v76
		var v83 uint64
		if v24 != 0 {
			v83 = v82
		} else {
			v83 = v77
		}
		vals[83] = v83
		var v91 uint64
		if v24 != 0 {
			v91 = v90
		} else {
			v91 = v84
		}
		vals[91] = v91
		var v99 uint64
		if v24 != 0 {
			v99 = v98
		} else {
			v99 = v92
		}
		vals[99] = v99
		var v107 uint64
		if v24 != 0 {
			v107 = v106
		} else {
			v107 = v100
		}
		vals[107] = v107
		var v115 uint64
		if v24 != 0 {
			v115 = v114
		} else {
			v115 = v108
		}
		vals[115] = v115
		var v122 uint64
		if v24 != 0 {
			v122 = v121
		} else {
			v122 = v116
		}
		vals[122] = v122
		var v130 uint64
		if v24 != 0 {
			v130 = v129
		} else {
			v130 = v123
		}
		vals[130] = v130
		var v138 uint64
		if v24 != 0 {
			v138 = v137
		} else {
			v138 = v131
		}
		vals[138] = v138
		var v146 uint64
		if v24 != 0 {
			v146 = v145
		} else {
			v146 = v139
		}
		vals[146] = v146
		var v167 uint64
		if v24 != 0 {
			v167 = v166
		} else {
			v167 = v147
		}
		vals[167] = v167
		var v169 uint64
		if v39 == 0x1 {
			v169 = 1
		}
		vals[169] = v169
		v170 := v8 & v169
		vals[170] = v170
		var v173 uint64
		if v170 != 0 {
			v173 = v172
		} else {
			v173 = v168
		}
		vals[173] = v173
		var v175 uint64
		if v39 == 0x2 {
			v175 = 1
		}
		vals[175] = v175
		v176 := v10 & v175
		vals[176] = v176
		var v178 uint64
		if v176 != 0 {
			v178 = v177
		} else {
			v178 = v174
		}
		vals[178] = v178
		var v180 uint64
		if v39 == 0x3 {
			v180 = 1
		}
		vals[180] = v180
		v181 := v12 & v180
		vals[181] = v181
		var v183 uint64
		if v181 != 0 {
			v183 = v182
		} else {
			v183 = v179
		}
		vals[183] = v183
		var v185 uint64
		if v39 == 0x4 {
			v185 = 1
		}
		vals[185] = v185
		v186 := v18 & v185
		vals[186] = v186
		var v188 uint64
		if v186 != 0 {
			v188 = v187
		} else {
			v188 = v184
		}
		vals[188] = v188
		var v190 uint64
		if v39 == 0x5 {
			v190 = 1
		}
		vals[190] = v190
		v191 := v24 & v190
		vals[191] = v191
		var v193 uint64
		if v191 != 0 {
			v193 = v192
		} else {
			v193 = v189
		}
		vals[193] = v193
		var v195 uint64
		if v39 == 0x6 {
			v195 = 1
		}
		vals[195] = v195
		v196 := v3 & v195
		vals[196] = v196
		var v198 uint64
		if v196 != 0 {
			v198 = v197
		} else {
			v198 = v194
		}
		vals[198] = v198
		v200 := v3 & v169
		vals[200] = v200
		var v202 uint64
		if v200 != 0 {
			v202 = v201
		} else {
			v202 = v199
		}
		vals[202] = v202
		var v205 uint64
		if v52 != 0 {
			v205 = v204
		} else {
			v205 = v203
		}
		vals[205] = v205
		var v208 uint64
		if v52 != 0 {
			v208 = v207
		} else {
			v208 = v206
		}
		vals[208] = v208
		var v211 uint64
		if v52 != 0 {
			v211 = v210
		} else {
			v211 = v209
		}
		vals[211] = v211
		var v214 uint64
		if v62 != 0 {
			v214 = v213
		} else {
			v214 = v212
		}
		vals[214] = v214
		var v217 uint64
		if v62 != 0 {
			v217 = v216
		} else {
			v217 = v215
		}
		vals[217] = v217
		var v220 uint64
		if v62 != 0 {
			v220 = v219
		} else {
			v220 = v218
		}
		vals[220] = v220
		var v221 uint64
		if v1 == 0x6 {
			v221 = 1
		}
		vals[221] = v221
	}
	done := vals[221] != 0
	if vals[3] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[147]
		}
	}
	l0 := vals[6] & 0x7ff
	l1 := vals[39] & 0x7
	l2 := vals[51] & 0xfffff
	l3 := vals[61] & 0x3f
	l4 := vals[68] & 0xf
	l5 := vals[76] & 0xffffffffff
	l6 := vals[83] & 0xffffffffff
	l7 := vals[91] & 0xffffffffff
	l8 := vals[99] & 0xffffffffff
	l9 := vals[107] & 0xffffffffff
	l10 := vals[115] & 0xffffffffff
	l11 := vals[122] & 0xffffffffff
	l12 := vals[130] & 0xffffffffff
	l13 := vals[138] & 0xffffffffff
	l14 := vals[146] & 0xffffffffff
	l15 := vals[167] & 0xffffffff
	l16 := vals[173] & 0xffffff
	l17 := vals[178] & 0xffffff
	l18 := vals[183] & 0xffffff
	l19 := vals[188] & 0xffffff
	l20 := vals[193] & 0xffffff
	l21 := vals[198] & 0xffffff
	l22 := vals[202] & 0xffffff
	l23 := vals[205] & 0xffffff
	l24 := vals[208] & 0xffffff
	l25 := vals[211] & 0xffffff
	l26 := vals[214] & 0xffffff
	l27 := vals[217] & 0xffffff
	l28 := vals[220] & 0xffffff
	vals[0] = l0
	vals[1] = l1
	vals[13] = l2
	vals[19] = l3
	vals[25] = l4
	vals[69] = l5
	vals[77] = l6
	vals[84] = l7
	vals[92] = l8
	vals[100] = l9
	vals[108] = l10
	vals[116] = l11
	vals[123] = l12
	vals[131] = l13
	vals[139] = l14
	vals[147] = l15
	vals[168] = l16
	vals[174] = l17
	vals[179] = l18
	vals[184] = l19
	vals[189] = l20
	vals[194] = l21
	vals[199] = l22
	vals[203] = l23
	vals[206] = l24
	vals[209] = l25
	vals[212] = l26
	vals[215] = l27
	vals[218] = l28
	return cycles + 1, done
}

func step_djpeg_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[76]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v13 := vals[13]
	v19 := vals[19]
	v27 := vals[27]
	v69 := vals[69]
	v73 := vals[73]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		var v42 uint64
		if v19 != 0x0 {
			v42 = 1
		}
		v44 := (v19 - 0x1) & 0xf
		var v45 uint64
		if v42 != 0 {
			v45 = v44
		} else {
			v45 = v19
		}
		var v53 uint64
		if v13 != 0x0 {
			v53 = 1
		}
		v55 := (v13 - 0x1) & 0x3f
		var v56 uint64
		if v53 != 0 {
			v56 = v55
		} else {
			v56 = v13
		}
		switch v0 {
		case 0x0:
			v39 := v27
			v46 := v45
			v57 := v56
			v67 := v7
			v68 := v67
			v72 := v69
			v75 := v73
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = 0x1
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x1:
			var v48 uint64
			if addr := uint64(v27); addr < uint64(len(m0)) {
				v48 = m0[addr] & 0x3ffffff
			}
			v59 := (v48 >> 6)
			v61 := v59 & 0xfffff
			v39 := v27
			v46 := v45
			v57 := v56
			v68 := v61
			v72 := v69
			v75 := v73
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = 0x2
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v48 uint64
			if addr := uint64(v27); addr < uint64(len(m0)) {
				v48 = m0[addr] & 0x3ffffff
			}
			v50 := v48 & 0x3f
			v52 := (v50 >> 1)
			v63 := v7 & 0x1
			v65 := (v63 + 0x1) & 0x3
			var v66 uint64
			if sh := v65; sh < 64 {
				v66 = (v7 >> sh) & 0xfffff
			}
			v74 := (v73 + 0x1) & 0xffffff
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v34 := v11
			v35 := v34
			v36 := v35
			v39 := v27
			v46 := v45
			v47 := v9
			var v57 uint64
			if v47 != 0 {
				v57 = v52
			} else {
				v57 = v56
			}
			v67 := v66
			v68 := v67
			v72 := v69
			var v75 uint64
			if v47 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x3:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			v71 := (v69 + 0x1) & 0xffffff
			var v17 uint64
			if v15 != 0 {
				v17 = 0x4
			} else {
				v17 = 0x3
			}
			v33 := v17
			v34 := v33
			v35 := v34
			v36 := v35
			v39 := v27
			v40 := v15
			var v46 uint64
			if v40 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v57 := v56
			v67 := v7
			v68 := v67
			var v72 uint64
			if v40 != 0 {
				v72 = v71
			} else {
				v72 = v69
			}
			v75 := v73
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x4:
			var v21 uint64
			if v19 == 0x0 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x5
			} else {
				v23 = 0x4
			}
			v32 := v23
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v39 := v27
			v46 := v45
			v57 := v56
			v67 := v7
			v68 := v67
			v72 := v69
			v75 := v73
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x5:
			var v26 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7ff
			}
			var v28 uint64
			if v26 <= v27 {
				v28 = 1
			}
			var v30 uint64
			if v28 != 0 {
				v30 = 0x6
			} else {
				v30 = 0x1
			}
			v38 := (v27 + 0x1) & 0x7ff
			v31 := v30
			v32 := v31
			v33 := v32
			v34 := v33
			v35 := v34
			v36 := v35
			v39 := v38
			v46 := v45
			v57 := v56
			v67 := v7
			v68 := v67
			v72 := v69
			v75 := v73
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		case 0x6:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v21 uint64
			if v19 == 0x0 {
				v21 = 1
			}
			var v26 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7ff
			}
			var v28 uint64
			if v26 <= v27 {
				v28 = 1
			}
			var v30 uint64
			if v28 != 0 {
				v30 = 0x6
			} else {
				v30 = 0x1
			}
			v38 := (v27 + 0x1) & 0x7ff
			var v48 uint64
			if addr := uint64(v27); addr < uint64(len(m0)) {
				v48 = m0[addr] & 0x3ffffff
			}
			v50 := v48 & 0x3f
			v52 := (v50 >> 1)
			v59 := (v48 >> 6)
			v61 := v59 & 0xfffff
			v63 := v7 & 0x1
			v65 := (v63 + 0x1) & 0x3
			var v66 uint64
			if sh := v65; sh < 64 {
				v66 = (v7 >> sh) & 0xfffff
			}
			v71 := (v69 + 0x1) & 0xffffff
			v74 := (v73 + 0x1) & 0xffffff
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
			var v17 uint64
			if v15 != 0 {
				v17 = 0x4
			} else {
				v17 = v0
			}
			var v18 uint64
			if v0 == 0x4 {
				v18 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x5
			} else {
				v23 = v0
			}
			var v24 uint64
			if v0 == 0x5 {
				v24 = 1
			}
			var v31 uint64
			if v24 != 0 {
				v31 = v30
			} else {
				v31 = v0
			}
			var v32 uint64
			if v18 != 0 {
				v32 = v23
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
			if v6 != 0 {
				v34 = v11
			} else {
				v34 = v33
			}
			var v35 uint64
			if v4 != 0 {
				v35 = 0x2
			} else {
				v35 = v34
			}
			var v36 uint64
			if v2 != 0 {
				v36 = 0x1
			} else {
				v36 = v35
			}
			var v39 uint64
			if v24 != 0 {
				v39 = v38
			} else {
				v39 = v27
			}
			v40 := v12 & v15
			var v46 uint64
			if v40 != 0 {
				v46 = 0xc
			} else {
				v46 = v45
			}
			v47 := v6 & v9
			var v57 uint64
			if v47 != 0 {
				v57 = v52
			} else {
				v57 = v56
			}
			var v67 uint64
			if v6 != 0 {
				v67 = v66
			} else {
				v67 = v7
			}
			var v68 uint64
			if v4 != 0 {
				v68 = v61
			} else {
				v68 = v67
			}
			var v72 uint64
			if v40 != 0 {
				v72 = v71
			} else {
				v72 = v69
			}
			var v75 uint64
			if v47 != 0 {
				v75 = v74
			} else {
				v75 = v73
			}
			var v76 uint64
			if v0 == 0x6 {
				v76 = 1
			}
			if v76 != 0 {
				break loop
			}
			n0 := v36
			n1 := v39
			n2 := v46
			n3 := v57
			n4 := v68
			n5 := v72
			n6 := v75
			v0 = n0
			v27 = n1
			v19 = n2
			v13 = n3
			v7 = n4
			v69 = n5
			v73 = n6
		}
	}
	vals[0] = v0
	vals[27] = v27
	vals[19] = v19
	vals[13] = v13
	vals[7] = v7
	vals[69] = v69
	vals[73] = v73
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v21 uint64
	if v19 == 0x0 {
		v21 = 1
	}
	vals[21] = v21
	var v26 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v26 = m0[addr] & 0x7ff
	}
	vals[26] = v26
	var v28 uint64
	if v26 <= v27 {
		v28 = 1
	}
	vals[28] = v28
	var v30 uint64
	if v28 != 0 {
		v30 = 0x6
	} else {
		v30 = 0x1
	}
	vals[30] = v30
	v38 := (v27 + 0x1) & 0x7ff
	vals[38] = v38
	var v42 uint64
	if v19 != 0x0 {
		v42 = 1
	}
	vals[42] = v42
	v44 := (v19 - 0x1) & 0xf
	vals[44] = v44
	var v45 uint64
	if v42 != 0 {
		v45 = v44
	} else {
		v45 = v19
	}
	vals[45] = v45
	var v48 uint64
	if addr := uint64(v27); addr < uint64(len(m0)) {
		v48 = m0[addr] & 0x3ffffff
	}
	vals[48] = v48
	v50 := v48 & 0x3f
	vals[50] = v50
	v52 := (v50 >> 1)
	vals[52] = v52
	var v53 uint64
	if v13 != 0x0 {
		v53 = 1
	}
	vals[53] = v53
	v55 := (v13 - 0x1) & 0x3f
	vals[55] = v55
	var v56 uint64
	if v53 != 0 {
		v56 = v55
	} else {
		v56 = v13
	}
	vals[56] = v56
	v59 := (v48 >> 6)
	vals[59] = v59
	v61 := v59 & 0xfffff
	vals[61] = v61
	v63 := v7 & 0x1
	vals[63] = v63
	v65 := (v63 + 0x1) & 0x3
	vals[65] = v65
	var v66 uint64
	if sh := v65; sh < 64 {
		v66 = (v7 >> sh) & 0xfffff
	}
	vals[66] = v66
	v71 := (v69 + 0x1) & 0xffffff
	vals[71] = v71
	v74 := (v73 + 0x1) & 0xffffff
	vals[74] = v74
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x0
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x0
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x0
		vals[32] = 0x0
		vals[33] = 0x0
		vals[34] = 0x0
		vals[35] = 0x0
		vals[36] = 0x1
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x1
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x1
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x1
		vals[32] = 0x1
		vals[33] = 0x1
		vals[34] = 0x1
		vals[35] = 0x2
		vals[36] = 0x2
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v61
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x2
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x2
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x2
		vals[32] = 0x2
		vals[33] = 0x2
		v34 := v11
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		v47 := v9
		vals[47] = v47
		var v57 uint64
		if v47 != 0 {
			v57 = v52
		} else {
			v57 = v56
		}
		vals[57] = v57
		v67 := v66
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		var v75 uint64
		if v47 != 0 {
			v75 = v74
		} else {
			v75 = v73
		}
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x3
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x3
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x3
		vals[32] = 0x3
		v33 := v17
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v27
		vals[39] = v39
		v40 := v15
		vals[40] = v40
		var v46 uint64
		if v40 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		var v72 uint64
		if v40 != 0 {
			v72 = v71
		} else {
			v72 = v69
		}
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x4
		}
		vals[17] = v17
		vals[18] = 0x1
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x4
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x4
		v32 := v23
		vals[32] = v32
		v33 := v32
		vals[33] = v33
		v34 := v33
		vals[34] = v34
		v35 := v34
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x5
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x5
		}
		vals[23] = v23
		vals[24] = 0x1
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
		v36 := v35
		vals[36] = v36
		v39 := v38
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x0
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = 0x6
		}
		vals[17] = v17
		vals[18] = 0x0
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = 0x6
		}
		vals[23] = v23
		vals[24] = 0x0
		vals[31] = 0x6
		vals[32] = 0x6
		vals[33] = 0x6
		vals[34] = 0x6
		vals[35] = 0x6
		vals[36] = 0x6
		v39 := v27
		vals[39] = v39
		vals[40] = 0x0
		v46 := v45
		vals[46] = v46
		vals[47] = 0x0
		v57 := v56
		vals[57] = v57
		v67 := v7
		vals[67] = v67
		v68 := v67
		vals[68] = v68
		v72 := v69
		vals[72] = v72
		v75 := v73
		vals[75] = v75
		vals[76] = 0x1
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
		var v17 uint64
		if v15 != 0 {
			v17 = 0x4
		} else {
			v17 = v0
		}
		vals[17] = v17
		var v18 uint64
		if v0 == 0x4 {
			v18 = 1
		}
		vals[18] = v18
		var v23 uint64
		if v21 != 0 {
			v23 = 0x5
		} else {
			v23 = v0
		}
		vals[23] = v23
		var v24 uint64
		if v0 == 0x5 {
			v24 = 1
		}
		vals[24] = v24
		var v31 uint64
		if v24 != 0 {
			v31 = v30
		} else {
			v31 = v0
		}
		vals[31] = v31
		var v32 uint64
		if v18 != 0 {
			v32 = v23
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
		if v6 != 0 {
			v34 = v11
		} else {
			v34 = v33
		}
		vals[34] = v34
		var v35 uint64
		if v4 != 0 {
			v35 = 0x2
		} else {
			v35 = v34
		}
		vals[35] = v35
		var v36 uint64
		if v2 != 0 {
			v36 = 0x1
		} else {
			v36 = v35
		}
		vals[36] = v36
		var v39 uint64
		if v24 != 0 {
			v39 = v38
		} else {
			v39 = v27
		}
		vals[39] = v39
		v40 := v12 & v15
		vals[40] = v40
		var v46 uint64
		if v40 != 0 {
			v46 = 0xc
		} else {
			v46 = v45
		}
		vals[46] = v46
		v47 := v6 & v9
		vals[47] = v47
		var v57 uint64
		if v47 != 0 {
			v57 = v52
		} else {
			v57 = v56
		}
		vals[57] = v57
		var v67 uint64
		if v6 != 0 {
			v67 = v66
		} else {
			v67 = v7
		}
		vals[67] = v67
		var v68 uint64
		if v4 != 0 {
			v68 = v61
		} else {
			v68 = v67
		}
		vals[68] = v68
		var v72 uint64
		if v40 != 0 {
			v72 = v71
		} else {
			v72 = v69
		}
		vals[72] = v72
		var v75 uint64
		if v47 != 0 {
			v75 = v74
		} else {
			v75 = v73
		}
		vals[75] = v75
		var v76 uint64
		if v0 == 0x6 {
			v76 = 1
		}
		vals[76] = v76
	}
	done := vals[76] != 0
	l0 := vals[36] & 0x7
	l1 := vals[39] & 0x7ff
	l2 := vals[46] & 0xf
	l3 := vals[57] & 0x3f
	l4 := vals[68] & 0xfffff
	l5 := vals[72] & 0xffffff
	l6 := vals[75] & 0xffffff
	vals[0] = l0
	vals[27] = l1
	vals[19] = l2
	vals[13] = l3
	vals[7] = l4
	vals[69] = l5
	vals[73] = l6
	return cycles + 1, done
}

func step_djpeg_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[84]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v30 := vals[30]
	v34 := vals[34]
	v38 := vals[38]
	v39 := vals[39]
	v47 := vals[47]
	v50 := vals[50]
	v55 := vals[55]
	v60 := vals[60]
	v65 := vals[65]
	v70 := vals[70]
	v75 := vals[75]
	v80 := vals[80]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v82 := (v80 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v82
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x1
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x1:
			v78 := (v75 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v78
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x2
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x2:
			var v40 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := v40 & 0x3f
			v44 := (v42 >> 1)
			v45 := (v39 + v44) & 0xffffff
			v48 := (v47 + 0x1) & 0xffffff
			v73 := (v70 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v45
			v49 := v48
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v65
			v74 := v73
			v79 := v75
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x3
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x3:
			v32 := (v30 + 0xc) & 0xffffff
			v36 := (v34 + 0x1) & 0xffffff
			v68 := (v65 + 0x1) & 0xffffff
			v27 := v15
			v33 := v32
			v37 := v36
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v60
			v69 := v68
			v74 := v70
			v79 := v75
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x4
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		case 0x4:
			v63 := (v60 + 0x1) & 0xffffff
			v27 := v15
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			v54 := v50
			v59 := v55
			v64 := v63
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v80
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = 0x5
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
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
			v53 := (v50 + 0x1) & 0xffffff
			v58 := (v55 + 0x1) & 0xffffff
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v33 := v30
			v37 := v34
			v46 := v39
			v49 := v47
			var v51 uint64
			if v24 == 0x1 {
				v51 = 1
			}
			v52 := v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v24 == 0x6 {
				v56 = 1
			}
			v57 := v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			v64 := v60
			v69 := v65
			v74 := v70
			v79 := v75
			v83 := v80
			n0 := v24
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = n0
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
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
			v32 := (v30 + 0xc) & 0xffffff
			v36 := (v34 + 0x1) & 0xffffff
			var v40 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v40 = m0[addr] & 0x3ffffff
			}
			v42 := v40 & 0x3f
			v44 := (v42 >> 1)
			v45 := (v39 + v44) & 0xffffff
			v48 := (v47 + 0x1) & 0xffffff
			v53 := (v50 + 0x1) & 0xffffff
			v58 := (v55 + 0x1) & 0xffffff
			v63 := (v60 + 0x1) & 0xffffff
			v68 := (v65 + 0x1) & 0xffffff
			v73 := (v70 + 0x1) & 0xffffff
			v78 := (v75 + 0x1) & 0xffffff
			v82 := (v80 + 0x1) & 0xffffff
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
			var v33 uint64
			if v8 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v37 uint64
			if v8 != 0 {
				v37 = v36
			} else {
				v37 = v34
			}
			var v46 uint64
			if v6 != 0 {
				v46 = v45
			} else {
				v46 = v39
			}
			var v49 uint64
			if v6 != 0 {
				v49 = v48
			} else {
				v49 = v47
			}
			var v51 uint64
			if v24 == 0x1 {
				v51 = 1
			}
			v52 := v12 & v51
			var v54 uint64
			if v52 != 0 {
				v54 = v53
			} else {
				v54 = v50
			}
			var v56 uint64
			if v24 == 0x6 {
				v56 = 1
			}
			v57 := v12 & v56
			var v59 uint64
			if v57 != 0 {
				v59 = v58
			} else {
				v59 = v55
			}
			var v61 uint64
			if v24 == 0x5 {
				v61 = 1
			}
			v62 := v10 & v61
			var v64 uint64
			if v62 != 0 {
				v64 = v63
			} else {
				v64 = v60
			}
			var v66 uint64
			if v24 == 0x4 {
				v66 = 1
			}
			v67 := v8 & v66
			var v69 uint64
			if v67 != 0 {
				v69 = v68
			} else {
				v69 = v65
			}
			var v71 uint64
			if v24 == 0x3 {
				v71 = 1
			}
			v72 := v6 & v71
			var v74 uint64
			if v72 != 0 {
				v74 = v73
			} else {
				v74 = v70
			}
			var v76 uint64
			if v24 == 0x2 {
				v76 = 1
			}
			v77 := v4 & v76
			var v79 uint64
			if v77 != 0 {
				v79 = v78
			} else {
				v79 = v75
			}
			v81 := v2 & v51
			var v83 uint64
			if v81 != 0 {
				v83 = v82
			} else {
				v83 = v80
			}
			var v84 uint64
			if v0 == 0x6 {
				v84 = 1
			}
			if v84 != 0 {
				break loop
			}
			n0 := v24
			n1 := v27
			n3 := v33
			n4 := v37
			n6 := v46
			n7 := v49
			n8 := v54
			n9 := v59
			n10 := v64
			n11 := v69
			n12 := v74
			n13 := v79
			n14 := v83
			v0 = n0
			v15 = n1
			v28 = 0x0
			v30 = n3
			v34 = n4
			v38 = 0x0
			v39 = n6
			v47 = n7
			v50 = n8
			v55 = n9
			v60 = n10
			v65 = n11
			v70 = n12
			v75 = n13
			v80 = n14
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[30] = v30
	vals[34] = v34
	vals[38] = v38
	vals[39] = v39
	vals[47] = v47
	vals[50] = v50
	vals[55] = v55
	vals[60] = v60
	vals[65] = v65
	vals[70] = v70
	vals[75] = v75
	vals[80] = v80
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
	v32 := (v30 + 0xc) & 0xffffff
	vals[32] = v32
	v36 := (v34 + 0x1) & 0xffffff
	vals[36] = v36
	var v40 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v40 = m0[addr] & 0x3ffffff
	}
	vals[40] = v40
	v42 := v40 & 0x3f
	vals[42] = v42
	v44 := (v42 >> 1)
	vals[44] = v44
	v45 := (v39 + v44) & 0xffffff
	vals[45] = v45
	v48 := (v47 + 0x1) & 0xffffff
	vals[48] = v48
	v53 := (v50 + 0x1) & 0xffffff
	vals[53] = v53
	v58 := (v55 + 0x1) & 0xffffff
	vals[58] = v58
	v63 := (v60 + 0x1) & 0xffffff
	vals[63] = v63
	v68 := (v65 + 0x1) & 0xffffff
	vals[68] = v68
	v73 := (v70 + 0x1) & 0xffffff
	vals[73] = v73
	v78 := (v75 + 0x1) & 0xffffff
	vals[78] = v78
	v82 := (v80 + 0x1) & 0xffffff
	vals[82] = v82
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
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x1
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x1
		v83 := v82
		vals[83] = v83
		vals[84] = 0x0
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
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x1
		vals[77] = 0x1
		v79 := v78
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
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
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v45
		vals[46] = v46
		v49 := v48
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x1
		vals[72] = 0x1
		v74 := v73
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
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
		v33 := v32
		vals[33] = v33
		v37 := v36
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x1
		vals[67] = 0x1
		v69 := v68
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
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
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x0
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x1
		vals[62] = 0x1
		v64 := v63
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
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
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		var v51 uint64
		if v24 == 0x1 {
			v51 = 1
		}
		vals[51] = v51
		v52 := v51
		vals[52] = v52
		var v54 uint64
		if v52 != 0 {
			v54 = v53
		} else {
			v54 = v50
		}
		vals[54] = v54
		var v56 uint64
		if v24 == 0x6 {
			v56 = 1
		}
		vals[56] = v56
		v57 := v56
		vals[57] = v57
		var v59 uint64
		if v57 != 0 {
			v59 = v58
		} else {
			v59 = v55
		}
		vals[59] = v59
		var v61 uint64
		if v24 == 0x5 {
			v61 = 1
		}
		vals[61] = v61
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		var v66 uint64
		if v24 == 0x4 {
			v66 = 1
		}
		vals[66] = v66
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		var v71 uint64
		if v24 == 0x3 {
			v71 = 1
		}
		vals[71] = v71
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		var v76 uint64
		if v24 == 0x2 {
			v76 = 1
		}
		vals[76] = v76
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x0
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
		v33 := v30
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		v46 := v39
		vals[46] = v46
		v49 := v47
		vals[49] = v49
		vals[51] = 0x0
		vals[52] = 0x0
		v54 := v50
		vals[54] = v54
		vals[56] = 0x1
		vals[57] = 0x0
		v59 := v55
		vals[59] = v59
		vals[61] = 0x0
		vals[62] = 0x0
		v64 := v60
		vals[64] = v64
		vals[66] = 0x0
		vals[67] = 0x0
		v69 := v65
		vals[69] = v69
		vals[71] = 0x0
		vals[72] = 0x0
		v74 := v70
		vals[74] = v74
		vals[76] = 0x0
		vals[77] = 0x0
		v79 := v75
		vals[79] = v79
		vals[81] = 0x0
		v83 := v80
		vals[83] = v83
		vals[84] = 0x1
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
		var v33 uint64
		if v8 != 0 {
			v33 = v32
		} else {
			v33 = v30
		}
		vals[33] = v33
		var v37 uint64
		if v8 != 0 {
			v37 = v36
		} else {
			v37 = v34
		}
		vals[37] = v37
		var v46 uint64
		if v6 != 0 {
			v46 = v45
		} else {
			v46 = v39
		}
		vals[46] = v46
		var v49 uint64
		if v6 != 0 {
			v49 = v48
		} else {
			v49 = v47
		}
		vals[49] = v49
		var v51 uint64
		if v24 == 0x1 {
			v51 = 1
		}
		vals[51] = v51
		v52 := v12 & v51
		vals[52] = v52
		var v54 uint64
		if v52 != 0 {
			v54 = v53
		} else {
			v54 = v50
		}
		vals[54] = v54
		var v56 uint64
		if v24 == 0x6 {
			v56 = 1
		}
		vals[56] = v56
		v57 := v12 & v56
		vals[57] = v57
		var v59 uint64
		if v57 != 0 {
			v59 = v58
		} else {
			v59 = v55
		}
		vals[59] = v59
		var v61 uint64
		if v24 == 0x5 {
			v61 = 1
		}
		vals[61] = v61
		v62 := v10 & v61
		vals[62] = v62
		var v64 uint64
		if v62 != 0 {
			v64 = v63
		} else {
			v64 = v60
		}
		vals[64] = v64
		var v66 uint64
		if v24 == 0x4 {
			v66 = 1
		}
		vals[66] = v66
		v67 := v8 & v66
		vals[67] = v67
		var v69 uint64
		if v67 != 0 {
			v69 = v68
		} else {
			v69 = v65
		}
		vals[69] = v69
		var v71 uint64
		if v24 == 0x3 {
			v71 = 1
		}
		vals[71] = v71
		v72 := v6 & v71
		vals[72] = v72
		var v74 uint64
		if v72 != 0 {
			v74 = v73
		} else {
			v74 = v70
		}
		vals[74] = v74
		var v76 uint64
		if v24 == 0x2 {
			v76 = 1
		}
		vals[76] = v76
		v77 := v4 & v76
		vals[77] = v77
		var v79 uint64
		if v77 != 0 {
			v79 = v78
		} else {
			v79 = v75
		}
		vals[79] = v79
		v81 := v2 & v51
		vals[81] = v81
		var v83 uint64
		if v81 != 0 {
			v83 = v82
		} else {
			v83 = v80
		}
		vals[83] = v83
		var v84 uint64
		if v0 == 0x6 {
			v84 = 1
		}
		vals[84] = v84
	}
	done := vals[84] != 0
	l0 := vals[24] & 0x7
	l1 := vals[27] & 0x7ff
	l2 := vals[29] & 0xffffff
	l3 := vals[33] & 0xffffff
	l4 := vals[37] & 0xffffff
	l5 := vals[29] & 0xffffff
	l6 := vals[46] & 0xffffff
	l7 := vals[49] & 0xffffff
	l8 := vals[54] & 0xffffff
	l9 := vals[59] & 0xffffff
	l10 := vals[64] & 0xffffff
	l11 := vals[69] & 0xffffff
	l12 := vals[74] & 0xffffff
	l13 := vals[79] & 0xffffff
	l14 := vals[83] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[28] = l2
	vals[30] = l3
	vals[34] = l4
	vals[38] = l5
	vals[39] = l6
	vals[47] = l7
	vals[50] = l8
	vals[55] = l9
	vals[60] = l10
	vals[65] = l11
	vals[70] = l12
	vals[75] = l13
	vals[80] = l14
	return cycles + 1, done
}

func step_djpeg_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[72]
	m0 := mems[0]
	v0 := vals[0]
	v15 := vals[15]
	v28 := vals[28]
	v32 := vals[32]
	v36 := vals[36]
	v44 := vals[44]
	v47 := vals[47]
	v52 := vals[52]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x1
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x1:
			v70 := (v67 + 0x1) & 0xffffff
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v70
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x2
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x2:
			var v37 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v37 = m0[addr] & 0x3ffffff
			}
			v39 := v37 & 0x3f
			v41 := (v39 >> 1)
			v42 := (v36 + v41) & 0xffffff
			v45 := (v44 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v42
			v46 := v45
			v51 := v47
			v56 := v52
			v61 := v57
			v66 := v65
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x3
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x3:
			v30 := (v28 + 0xc) & 0xffffff
			v34 := (v32 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v27 := v15
			v31 := v30
			v35 := v34
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v52
			v61 := v60
			v66 := v62
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x4
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		case 0x4:
			v55 := (v52 + 0x1) & 0xffffff
			v27 := v15
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			v51 := v47
			v56 := v55
			v61 := v57
			v66 := v62
			v71 := v67
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = 0x5
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
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
			v50 := (v47 + 0x1) & 0xffffff
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v23 := v22
			v24 := v23
			v27 := v26
			v31 := v28
			v35 := v32
			v43 := v36
			v46 := v44
			var v48 uint64
			if v24 == 0x1 {
				v48 = 1
			}
			v49 := v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			v56 := v52
			v61 := v57
			v66 := v62
			v71 := v67
			n0 := v24
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = n0
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
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
			v30 := (v28 + 0xc) & 0xffffff
			v34 := (v32 + 0x1) & 0xffffff
			var v37 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v37 = m0[addr] & 0x3ffffff
			}
			v39 := v37 & 0x3f
			v41 := (v39 >> 1)
			v42 := (v36 + v41) & 0xffffff
			v45 := (v44 + 0x1) & 0xffffff
			v50 := (v47 + 0x1) & 0xffffff
			v55 := (v52 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
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
			var v31 uint64
			if v8 != 0 {
				v31 = v30
			} else {
				v31 = v28
			}
			var v35 uint64
			if v8 != 0 {
				v35 = v34
			} else {
				v35 = v32
			}
			var v43 uint64
			if v6 != 0 {
				v43 = v42
			} else {
				v43 = v36
			}
			var v46 uint64
			if v6 != 0 {
				v46 = v45
			} else {
				v46 = v44
			}
			var v48 uint64
			if v24 == 0x1 {
				v48 = 1
			}
			v49 := v12 & v48
			var v51 uint64
			if v49 != 0 {
				v51 = v50
			} else {
				v51 = v47
			}
			var v53 uint64
			if v24 == 0x5 {
				v53 = 1
			}
			v54 := v10 & v53
			var v56 uint64
			if v54 != 0 {
				v56 = v55
			} else {
				v56 = v52
			}
			var v58 uint64
			if v24 == 0x4 {
				v58 = 1
			}
			v59 := v8 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v24 == 0x3 {
				v63 = 1
			}
			v64 := v6 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v24 == 0x2 {
				v68 = 1
			}
			v69 := v4 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v72 uint64
			if v0 == 0x6 {
				v72 = 1
			}
			if v72 != 0 {
				break loop
			}
			n0 := v24
			n1 := v27
			n2 := v31
			n3 := v35
			n4 := v43
			n5 := v46
			n6 := v51
			n7 := v56
			n8 := v61
			n9 := v66
			n10 := v71
			v0 = n0
			v15 = n1
			v28 = n2
			v32 = n3
			v36 = n4
			v44 = n5
			v47 = n6
			v52 = n7
			v57 = n8
			v62 = n9
			v67 = n10
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[28] = v28
	vals[32] = v32
	vals[36] = v36
	vals[44] = v44
	vals[47] = v47
	vals[52] = v52
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
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
	v30 := (v28 + 0xc) & 0xffffff
	vals[30] = v30
	v34 := (v32 + 0x1) & 0xffffff
	vals[34] = v34
	var v37 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v37 = m0[addr] & 0x3ffffff
	}
	vals[37] = v37
	v39 := v37 & 0x3f
	vals[39] = v39
	v41 := (v39 >> 1)
	vals[41] = v41
	v42 := (v36 + v41) & 0xffffff
	vals[42] = v42
	v45 := (v44 + 0x1) & 0xffffff
	vals[45] = v45
	v50 := (v47 + 0x1) & 0xffffff
	vals[50] = v50
	v55 := (v52 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
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
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x1
		vals[49] = 0x0
		v51 := v47
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
		vals[72] = 0x0
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
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
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
		vals[72] = 0x0
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
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v42
		vals[43] = v43
		v46 := v45
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
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
		vals[72] = 0x0
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
		v31 := v30
		vals[31] = v31
		v35 := v34
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x0
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x1
		v61 := v60
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
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
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
		vals[51] = v51
		vals[53] = 0x1
		vals[54] = 0x1
		v56 := v55
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
		vals[72] = 0x0
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
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		var v48 uint64
		if v24 == 0x1 {
			v48 = 1
		}
		vals[48] = v48
		v49 := v48
		vals[49] = v49
		var v51 uint64
		if v49 != 0 {
			v51 = v50
		} else {
			v51 = v47
		}
		vals[51] = v51
		var v53 uint64
		if v24 == 0x5 {
			v53 = 1
		}
		vals[53] = v53
		vals[54] = 0x0
		v56 := v52
		vals[56] = v56
		var v58 uint64
		if v24 == 0x4 {
			v58 = 1
		}
		vals[58] = v58
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		var v63 uint64
		if v24 == 0x3 {
			v63 = 1
		}
		vals[63] = v63
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		var v68 uint64
		if v24 == 0x2 {
			v68 = 1
		}
		vals[68] = v68
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[72] = 0x0
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
		v31 := v28
		vals[31] = v31
		v35 := v32
		vals[35] = v35
		v43 := v36
		vals[43] = v43
		v46 := v44
		vals[46] = v46
		vals[48] = 0x0
		vals[49] = 0x0
		v51 := v47
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
		vals[72] = 0x1
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
		var v31 uint64
		if v8 != 0 {
			v31 = v30
		} else {
			v31 = v28
		}
		vals[31] = v31
		var v35 uint64
		if v8 != 0 {
			v35 = v34
		} else {
			v35 = v32
		}
		vals[35] = v35
		var v43 uint64
		if v6 != 0 {
			v43 = v42
		} else {
			v43 = v36
		}
		vals[43] = v43
		var v46 uint64
		if v6 != 0 {
			v46 = v45
		} else {
			v46 = v44
		}
		vals[46] = v46
		var v48 uint64
		if v24 == 0x1 {
			v48 = 1
		}
		vals[48] = v48
		v49 := v12 & v48
		vals[49] = v49
		var v51 uint64
		if v49 != 0 {
			v51 = v50
		} else {
			v51 = v47
		}
		vals[51] = v51
		var v53 uint64
		if v24 == 0x5 {
			v53 = 1
		}
		vals[53] = v53
		v54 := v10 & v53
		vals[54] = v54
		var v56 uint64
		if v54 != 0 {
			v56 = v55
		} else {
			v56 = v52
		}
		vals[56] = v56
		var v58 uint64
		if v24 == 0x4 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v8 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v24 == 0x3 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v6 & v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v68 uint64
		if v24 == 0x2 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v4 & v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v72 uint64
		if v0 == 0x6 {
			v72 = 1
		}
		vals[72] = v72
	}
	done := vals[72] != 0
	l0 := vals[24] & 0x7
	l1 := vals[27] & 0x7ff
	l2 := vals[31] & 0xffffff
	l3 := vals[35] & 0xffffff
	l4 := vals[43] & 0xffffff
	l5 := vals[46] & 0xffffff
	l6 := vals[51] & 0xffffff
	l7 := vals[56] & 0xffffff
	l8 := vals[61] & 0xffffff
	l9 := vals[66] & 0xffffff
	l10 := vals[71] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[28] = l2
	vals[32] = l3
	vals[36] = l4
	vals[44] = l5
	vals[47] = l6
	vals[52] = l7
	vals[57] = l8
	vals[62] = l9
	vals[67] = l10
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("389ed69b7a9c6b982aa5e8e0d12ee60c4b53ffdca195a1f4dd386b058c8b985c", "djpeg", step_djpeg)
	rtl.RegisterNative("e69c984a9be3fd18bbf0538a1c6ad75e8d2f913b453267bf16d788920db47fe7", "djpeg_ins", step_djpeg_ins)
	rtl.RegisterNative("a8624f8b57241389602b349714dfdca2a5f7d9936e7029c96959a2438bf00691", "djpeg_pruned", step_djpeg_pruned)
	rtl.RegisterNative("79801d9fb490561b236fadcbffaf0080a96a54b0732c9b9b035156bb1769355f", "djpeg_cone", step_djpeg_cone)
	rtl.RegisterNative("a382f731d6dd2b8cbd099d6e2c57fd843f66b80d06f1d477ddc780593bbbec55", "djpeg_slice_all", step_djpeg_slice_all)
	rtl.RegisterNative("aa58d9dccf8c52a035cf0f978bc3a1d425487b1708f341198db642ad45c518f2", "djpeg_slice_t42", step_djpeg_slice_t42)
}
