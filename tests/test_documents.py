"""Pinned documents: the sha256 of the ``--format json`` document of every
base object id on four standard structures, of the ``--format text``
and ``--format latex`` documents on worked-3d and berwald-4d, and of the
one ``--format json`` output of all base ids on the 4-term quartic.  The JSON
digests were taken before ``Poly`` switched to packed exponent keys, the
text and LaTeX digests before the two printers shared their term joining;
a change meant to leave the canonical form and its printing alone must
leave them unchanged.  The JSON documents must not depend on the order in
which the ids are built either."""

import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import geometry_for, make_structure
from finslercalc import build, cli, registry

DIGESTS = {
    "worked-3d": {
        "g": "624dfed05ee4b004bd5c4ee92726fdf38a9ec79a484ca29807dd658bebbdbed2",
        "ginv": "0a3b52af2a0ab39c896c2852bbf613a3b1b3f708c7bf5a7d45bdb84004fa55c1",
        "l": "9fff079a80d22df77fe83075d38c8a91daf24533ef894173bb5e45a96bc65160",
        "lup": "3706df4d1295130843340f485fbffd7cfc5eb0a0acfa1645853293258d055274",
        "h": "61b452eb83aa3116e60698ce5fc11880346705a7920a5410852f85907ea4b950",
        "C": "16b51dae7212adef7e8da11dddbcc9551d9028ab0bc0bc151648da486ea287ca",
        "Cmixed": "87f93c37ef956c3b525acb7edd07e7cf5db7891da3f7b36b44da1b40e679701d",
        "gamma": "17463dcded88a0a4add273c82b9304232bdcfa573b93320d2399fd380c751c83",
        "Gspray": "d34f30e730548539d217cc92ff81cc5cb8823b31306976d64d481ba33a20fa09",
        "N": "1770b011588d8d8085a1239031358ab0e728ff0fdb0ce1216539188010140c23",
        "Gberwald": "06c20b36ef3b9c8cf1ea5ebb26f0c39e6f3593b6471b1e7a773133ef4a9bde68",
        "Gamma": "fe714195f2b1461a8e87b62a50c8fb603cc3b53dd58a2a62c3e12c569eab9468",
        "Rtorsion": "63e95c518e07a82d74cf20c2280190deb59c0b535a5ecf47e1434edfc49420de",
        "Ptorsion": "dc7fcdcdbf679cdab4677185ea75b59a149d98e531c8b5ee22134aa80dfebf03",
        "R:cartan": "d7a34876aa726c42fe377fa83fada4f9a19faf89b0a0463e118ab639f20b51c3",
        "R:berwald": "f3bef3a248da555c0456dd9ace106e82cbba64aec6861a5ac352ed574d67a8f1",
        "R:chern": "06415d1926816e6e1879c1c101d3cbc849e1e439145dd3b84a152f3ccbaceb2b",
        "R:hashiguchi": "259e5b4aefc3546116e62d1663fe04aed7c66a6a7be796ed5aafc5a64cc42e16",
        "P:cartan": "29e6fe0cddbf2810e0fde83200ca97dd0ad78140882e3a99549f617b6a99f3ef",
        "P:berwald": "d20cc0f2beaeefc15a7ff737b2b05f8312fd123c25f695776e2a9aab7ece456f",
        "P:chern": "0474720b49709d9e0e23fc6348e2954692ecefb8d4c85bd66b7a5e81256987dc",
        "P:hashiguchi": "b617ff9430202b6d13609d509e0d974f78ed5fa976fc99a921d29826c94a10be",
        "S:cartan": "f09201eb1aaa76e67202e0051076bee84d67df6d4cca5848a393597d53e778ad",
        "S:hashiguchi": "da108e7e0ab137ff7c828324433bfd8bfd890519ac834e76ab7af19ef5e5150b",
        "classify": "127b835feba90dfec690f17b9b75cf667590779e4cb9801aeaa0fb7c1c285138",
    },
    "perturbed-flat-2d": {
        "g": "7a18511a92800669aa867c4031add60b08e41023ca647d6793053c3e0f7e5ea9",
        "ginv": "4766a77107ecdb3caab7bbd11e4cc9df1377fc1aa40ef3d9b06891bbb6518820",
        "l": "f1c2bf1d12aa39540d0ec636fb20cd2878e79e9fd6aca2778a29a7b0f54c68ab",
        "lup": "393090e6053da4f27cac6c6188eed13539072c2059756f7208bdcb678e1d650d",
        "h": "5774d884412cc1251938fb234ff19d8e391bd813d59c49356d55a420c0e4a14e",
        "C": "3fd3f2ea6d68aa15f9bce951b16e25a4ee65f492219e94abf9f732fb99edf278",
        "Cmixed": "ee613074995a7b7cf65c9e221ffb6571ad9bb63ad34c6d51b1d31748bd56f47d",
        "gamma": "52a880eb3534e7c95aefd145d58ac29c0c39254429d064d783ca0e202399ef7d",
        "Gspray": "baeef699784e1d60e49adee51089e98e76f3ec8c9fdcb1a87685b86e3b93c75f",
        "N": "4b2a68a9a9e4ddbe11d62f8cff7db3d866c861c5db770747bf55ec3ed8e016a1",
        "Gberwald": "49df5a05d2c8e36fd76eaed8d331c6377f49150be75c1e5238c8f6766745791e",
        "Gamma": "262d658717b169b3c3e7600e2d6a54fa94a8357aef5cc4cccba2e385eeb93820",
        "Rtorsion": "aed967ad3c478cc2c89ac6235c6d09c54a099df5242f6415ad0d585c87fb8a79",
        "Ptorsion": "fffa195312187f8e8530fdc57cf2fd0a75c255d010c26e5d458b9e12d5ad7134",
        "R:cartan": "31dfe9ae976519f3b6705dedaefaa98a041364d333ebdad1a740bf3cd15b6899",
        "R:berwald": "38c142f1eaa307558e87b0739ffe97ab85a828b78b78151176637dc782ace674",
        "R:chern": "5ac7b2bbca34b65f2f8e46007585eb216b62fefcef1955f0f2b189ce00cf5e39",
        "R:hashiguchi": "9961ce9088ca11a12f2ae577fd356920885041ab98781007743aabbc3c87fab3",
        "P:cartan": "4f5b0b0c77195235b4ccadf16f9c52e100fb09e96172563a18b2e4934c8a32f6",
        "P:berwald": "c17ad8d014fb8a11ae113c2fd32ac07a1ddc426eb1996469f34f6c2c1553098f",
        "P:chern": "7bb130c2e45236d515816e364e233dc8583854d6b0700eacfa1abb9787eb9d9d",
        "P:hashiguchi": "cdc63722550d85ccff8a705e3e2958f686cc11d310b98ef4b1f9739cdd529759",
        "S:cartan": "687c76f8cfd4d014ca646ddbd9d82bf12e5c40c1b8f0923bd95dc0c0875058a8",
        "S:hashiguchi": "95ca75f48df1b92f473ed693bc4ebc6a41af443f93332da831fdc869bfebb005",
        "classify": "127b835feba90dfec690f17b9b75cf667590779e4cb9801aeaa0fb7c1c285138",
    },
    "berwald-4d": {
        "g": "9d826e5e033f4030f4f9b2d6aadd09e625b894bb0bdab48b1317297ec2a178ea",
        "ginv": "0dbd59d4d39016a7329446518a2c707e7edd7169379a306d80906db39fc40fac",
        "l": "b08a96fd1b91191460d2ca1023874b649b5db0e13226510c758a316b29820ed4",
        "lup": "ad738cf9624d600d18e354782c81b1b9d8e5dbde96909bd6afb94c5b8278cbf6",
        "h": "d144a765330f65f4c202dde076d82e27051c9f24b896c812ebb7a9882a7e9a15",
        "C": "beaebe20d51f7f5c4c8fa37454ec42812a946e9401336fbb39675a6a2bba668c",
        "Cmixed": "cd0cde78df1008e39f534cdbb3391b6c1be1691da94ceb444d92273d94f6c38b",
        "gamma": "0ec8b26a4e19aa75f34de2814259f8aa091105bce26c839e2b4f84042eb0a294",
        "Gspray": "d58db17f1da6f1dfa00815c05d63b126cbe9408e8fcf0ba151431d4b3daffc11",
        "N": "4b19c884504cb7019968f7d610c87d854fe67939c25a33a84fe57c86a6b18771",
        "Gberwald": "179c7542f3972bc34194fb2d02d8c2c726e75175c7c70c322578cd3917e5f88f",
        "Gamma": "6ba06d9f826f43646e9c487d27b91158777c5941390df6845ced995598db0098",
        "Rtorsion": "83ce1a539fb32cc890df1b83e89ef66acc4577ae2708208d92728b5eacbf539a",
        "Ptorsion": "60d76cb0774b499e5922f99e701b55c66e9365c231c435990f4aeab36d12427b",
        "R:cartan": "25d43502b23aa69d9f217b288408fe356350a3a7b5336f7432581b69bfc5c69f",
        "R:berwald": "216a8b3e2e00a58808fe5bbc62c78b0cb7bbc430ab8d9481457153c5e2a0db56",
        "R:chern": "c292b74ba97ab4fc23f3ebb33c49667c35a6567bbbe3378e3cbb2d863cca0ed6",
        "R:hashiguchi": "922d911c189d2d00909ad85d7847ce17caedfe7b489823c0f52d0e89e73905e3",
        "P:cartan": "85185f259f7c4ba112d9e83074bb48738d8ac53ffdd29d91ebca49ec6ea6c7e5",
        "P:berwald": "c894c6ab9c73464ac76bed904875e9625292a6b9a30643cf0fae22ba5fbfbed2",
        "P:chern": "b263502bd2579e9a7929a373d83d0da18c9100ab90ad15e1bc51b46e84c6249d",
        "P:hashiguchi": "6009c55c22607ce33988ffdba1656ae018caf3f408848bbaa2e990fa209ca5f8",
        "S:cartan": "bd7068bedac7e5e215d9230edf3daf11cb3ef959e6140d3e756bbd30dd611e1c",
        "S:hashiguchi": "e200d7af4bbd4b32fe8c4df37478857f6ee9fe339e45cd3165de0c54678f20c0",
        "classify": "97d2464b9830eed08e0330ca13477ddba02038a66df45f9933a42163fd697178",
    },
    "cuberoot-3d": {
        "g": "2fb7302e9d404ad6e3dc9d86e8b467a06996d96c5efdfed45d3ac0b99882f5b6",
        "ginv": "5071f7187852daf5ac2153408a7350a873c1be190c7b8652ef6dafd572d1304f",
        "l": "0491344b8aa326902bf0b1770b6c9a9c307b584434c937c4cb5156d341c0a346",
        "lup": "c2d8df97607904043076c41a5393ddc90f0c147c70d42986058661ec81ecdceb",
        "h": "f6c51fdea62e91a1befe12eb9b27588fc6a8e4bbbdaea61c705320b482df0e19",
        "C": "a8e99a5a4f0e28873312df74f49bbcf8ccacb580f3f8618840b748b1980e5f3a",
        "Cmixed": "f501f3f1c2b05451dd60903a13ebe1660d3c8bd96f7746cc360e203edaa1ca41",
        "gamma": "3b7bbfdf303bf6972d5b0d8176f4c309882de414c596815bf770b52a738a6314",
        "Gspray": "7dd8c969dca5810d563d5c1431379525f7ac3bebe74b4b18a0ead015951eca52",
        "N": "a9e78de21fee47ff0ceebd2319e6d520f16a16486dcc23328af1547776c1badb",
        "Gberwald": "3c3ba325add38cc958a5704f08bc7e880ce291b3630e5a16db65852c01eb57c0",
        "Gamma": "317be43faca32cc80ba83583568e9f448ba4ea8aa5a11c16a6421a161d5c1e12",
        "Rtorsion": "059c41104979889c8ac997e16c4f2e113d8c90425ec50c13e0f2748f39ab4e52",
        "Ptorsion": "fc4c15042e4f68df190e7414e59a00a67b2023493f813313bf554f3a4f553862",
        "R:cartan": "dc55dc18bc2ed19fd7c109459c97614897ce27bdd0c599d382e467914caf5952",
        "R:berwald": "87f8193c7c665d1f2890a788b2b39862bb494dd4b51ada69edaccf7b0de61f62",
        "R:chern": "0222eade17524886c403cec5d7855f0ec7ca1d5166018a119a76e4653f3e265c",
        "R:hashiguchi": "9b572a1347a813564807a8a1219ea8e4b0af2a92b0567fdd3ff7b6c528d1286a",
        "P:cartan": "8d9a8d1a9719636dd630f2dac1523f6f44d6129e492c8c30e0fa6c2fa93432db",
        "P:berwald": "5e726dbbac282e1e7f85c55d7935a7bbb0820125c6c9eba07a661c2dde633d39",
        "P:chern": "852ffb04ad5429761fca437a0057a2b40aeaae8fd10e263bbb16d5ed0f3ffa3b",
        "P:hashiguchi": "7235b20cedc9bdaf858ff120fab9ea341cfda943be45c398c6d1f1d46186be0b",
        "S:cartan": "8e7fa455cdb89fc4f295af9893edb252876f237a80d1dee8583128e7fdabc3ad",
        "S:hashiguchi": "1b53df6776f1bbd54da4fa12555ed3bcf734590b858cebfdb923e7d319e8bce6",
        "classify": "127b835feba90dfec690f17b9b75cf667590779e4cb9801aeaa0fb7c1c285138",
    },
}


TEXT_DIGESTS = {
    "worked-3d": {
        "g": "90d05f38d9b9188528e8e9c19e649e277c827414429b5a3deb5d50ad99de2c4e",
        "ginv": "6aad58733c0859d19ec841e1ce573e92d2c399716450e5293714beca1c0133b2",
        "l": "f25f0203b4c151bba31703f2ba103e955c51c7d02636475d829d3622aa48d567",
        "lup": "da1791a3ba207e0e8a7b376b4ed4e925a6a801e63289e22954697ffff0b846da",
        "h": "46ce474a238032328c1042c1793e1373340961dd938cdf174c1fb516b2ff3763",
        "C": "f87677129fbd0eb02535d4c04b65eb8dcab97fbf0b47f139c3e284cc74218aa1",
        "Cmixed": "40ddaf0507a2b83a1f14fdbbabb8e665be81aed184f4456a532be7b310bab2ce",
        "gamma": "1976dbb63f8b22870696ee41c5d88af1e10b15a6e4c861c08f372826e73c5567",
        "Gspray": "2fa754f27a050145bcf6facff0ea126982d9ccefefdd8ec66051380f8df10174",
        "N": "46c78fa2b5515e54a562d3191cc5bf2196d93f3c38688734eb943e3a2c86f664",
        "Gberwald": "19ec4e444a84ed64d3d4f07519848911915e55872818b10b21ad2927bc49e748",
        "Gamma": "53b27647deb6cdd9267b84b7ad36b9b216d8612f77fddedf8ec6171e57c7f694",
        "Rtorsion": "d26233e67bffd93876deee54f16a215363b2e0049f5981ee75dc723ec5ddbe36",
        "Ptorsion": "3cbb08060f0ce7238604e4984290ebe4f1dae81c68c4a3fc2cd0db71ca651481",
        "R:cartan": "6716cbee40635a574134fcfa3a2b1f1534026ab386890a25ee33fab1f4d878ce",
        "R:berwald": "65fff64482b75144bfffcc30acc596c5cdabba687680ccbae17a06a9a6aa5287",
        "R:chern": "8fae79e53b11d4226c81827b7bc46d8a5d8dae5ca3e5e1922fecd722ab476108",
        "R:hashiguchi": "3d6a0bf5a70f9b7020eaee9ee14319b8d4a50dc1583ec892c4b259c129428c54",
        "P:cartan": "5a11f8517160184e32f0c7c62293f25d7af518ecb985827096f091f23e2131bf",
        "P:berwald": "a181dea6239947f2be29ed19fd2e556ee900ead0b6e5224d0fb2b037b8584c07",
        "P:chern": "ab0dd467c460bf91f13780f7c664c0beb5e1ea651729daffac30fa0a735c632c",
        "P:hashiguchi": "35fa92f885734fe30657276f8981d2650bf65e113949b6dd14e21fe86cd60057",
        "S:cartan": "e5ff2aa20e17a93911f547766f7691e711b2682a7dbf4d99743d2d35e2d15f69",
        "S:hashiguchi": "b22201685c3c220191ef5ae064a251bdd5d67f6d9064d0d19dcb1002612561d0",
        "classify": "75bf9ed998eba7871416a79fc792bf85aaf6bcfc0023ad25e41e04ad981ff630",
    },
    "berwald-4d": {
        "g": "09a05dd4a0959ae88e22041ddb8e8eff3b635d68f0ad71dc00f15a0d9f1ce393",
        "ginv": "300b7fe1d7bb1199d17d68a3182e6db6458377f784b27d1770ccb6e335fd4edd",
        "l": "97bc9f691eb159dc63657a84fd6dee0bb378a92559593f153f133d4b15277956",
        "lup": "9adb489d5fc169786a9cdb561fd779e52d2c957e2eabd2007a9d8bd5d78d799d",
        "h": "b3e043b12498511631774f3c76bfef8c08c3a2757ba974acb1669d5106ef9439",
        "C": "f2773f3b56a7776b1f50992a04664a3f15ea876ab8a8a136d7d291422e2ce1f1",
        "Cmixed": "40188cd1534d0d0d90152031bb89273a8c8995b583c465c83853b8926abe8b57",
        "gamma": "2e70f5b6cab14ba51bb22921ec05338f20be3b6656776d64f0cbeb6f0cfeb356",
        "Gspray": "d37a532fce84b99961258a54bebd4f085aa8cc03a9e77cd015112eab7d7073aa",
        "N": "24a7095faf689d8d8a38eaf4a6feb789be69c56eeab573811d71d27819f068ad",
        "Gberwald": "a94f0adbd2e7a04b0b0328fff0c99c03cd6e90810bbc16aad75c6c209243b23c",
        "Gamma": "742aa05e3faf784b2b0a96c8dbe7d8eb16f731a23d757001bdfaca4b5da2e9c8",
        "Rtorsion": "a01743ef0da0268195f94b66196a6ae69a3929f48c62303e40ca099d0bdc9b92",
        "Ptorsion": "56fd4930bb75c1cdf33bdcfee3502fc4cc993aa93a9e25b68b8f64db77c5ca48",
        "R:cartan": "8443b17db1b151f07f5759ee6c0c745c0b140f241d5c5bc279847353bb5b815c",
        "R:berwald": "a7cb80096362e10629ddb7c074b77ab8d624c8ddb8f4ffbe3fa957dc79f10716",
        "R:chern": "f447db222787fe8fe8a7caceb545ba8cc137c2e80a8de8ecb62b67b2666b9fed",
        "R:hashiguchi": "0f48fd22bd2a5be7204da6cfb815934c35dc1f0467a64412197cf6d953dbb7a7",
        "P:cartan": "198572278aab3b95dfea5b5045a0033a48d91702e2713f5f30573b699fed5d1f",
        "P:berwald": "81114068405854e5bd62a6688b3d05ead42910c06b628beff7f9b63cef010cfd",
        "P:chern": "2e57d504dd758fde162f20eb410f9b886fd7153318701e4d5b418e0a20bbc0f3",
        "P:hashiguchi": "23896a0a7d73d3c113dba78e65342d25a5d899ab2a6360a0cb2186a85e84bfff",
        "S:cartan": "b25e57690f81bf13f392fdb0c7e73823d21a720f092600831d471d64840b86bd",
        "S:hashiguchi": "42a4aefeaa34725e58a18a88e3993fc2d4c991205efe62ae3baf367ba2a4b0fd",
        "classify": "cf8e21a62dfc3da5a30caad7ceeabadce2009b56b5177cb8efe32b0f93896fa4",
    },
}


LATEX_DIGESTS = {
    "worked-3d": {
        "g": "2dabe3ba24978eb64a83441edbd90ab18f9fb36f9017f1a0289edfdf8a08f5ad",
        "ginv": "774dd492d3c8fa65d8580b2d381a8a2356ee32d0faa49d237838f327c4258cd7",
        "l": "c152ae86400fd1ac7587aa0be7806efb74095472a000ac896cd0dc57281c0b83",
        "lup": "96b89fc6799edbd8a2ea1b4814b95dc2f8225323f4a254fff0dbf1ad41ccc7fd",
        "h": "b08ce93ea4d7253580aa2960c87fe60bec0960d735b4327e6d20bf12b56cfd38",
        "C": "78f06e1de2b06970283471c3ea491f3e8b1a9bc57183afd9009c49c03969d44b",
        "Cmixed": "eb045d9f3e647d366c3ab2da8e2b3cc6288c67eb6061813209a59be933efca73",
        "gamma": "ff4943410fb9448d9f2606b141f7a798ee4868128c3c597d5ee5d928e5eb3657",
        "Gspray": "24b236ca557eba18a9b567393b46f09b6914e2317aac7f383b7b07e58bb0c131",
        "N": "9ee8a713b697b625bb175a4d1119a2d4764f1a44c64e669525a2eeb4c4c0728d",
        "Gberwald": "73f5ea2d1f53d20557f2c0ff1cb7f03af77026bd58026ee24c0e2edc4e6e97fa",
        "Gamma": "528246e2dfc1b7b6a7cce15d690c800ce6990d4ec4e0acabda5994295ef49d2f",
        "Rtorsion": "54273874767767dd583b8e8bf3cd25ea2d884242f8a512afcf91a1aca96a7acd",
        "Ptorsion": "8896c959b3f624baf79716eb24f9f2af50819f764e7bc5e7e30d0bf090da3262",
        "R:cartan": "048dfcb12e9926ec58a5db95d3f3030fe288e9f0677769dfc3fbd6c0ca4fcba7",
        "R:berwald": "921b5204f48ee8361ef4421263fd50311828dc5f19b02aa2e75ae66246cc1ce8",
        "R:chern": "9db1c36c16e6290210203a429e5075794a4ea2878a4fa98cf25ceebb2d7a74c3",
        "R:hashiguchi": "23d40c83806c76f3b600fbc16cbaba3bcb9e1fa1b7f62b1682f2443083df6525",
        "P:cartan": "c8c257fdd7d8d53827743e35a48e37c345b45dd3b6e8dabcaa5c2fc5ed37dca9",
        "P:berwald": "fc9942374909dbf4f9e9f8900050a773976ba226b1b5efc96ec7f9d5b8fee2e8",
        "P:chern": "94c2c6defc275425c0dd2eced42c1e96a10d7a1acb53063d5178b854ac78f797",
        "P:hashiguchi": "4d0515e978ec7d6f428633b56c88e75d5f1e1bc1e888894464c69c07d2d73647",
        "S:cartan": "e5ff2aa20e17a93911f547766f7691e711b2682a7dbf4d99743d2d35e2d15f69",
        "S:hashiguchi": "b22201685c3c220191ef5ae064a251bdd5d67f6d9064d0d19dcb1002612561d0",
        "classify": "72dc77b777bf59cda5ea781e5ba99693584d45c0a12a6113c13e7285a87a3da1",
    },
    "berwald-4d": {
        "g": "5a01c0a70ebcdfd52c741de58eaf702e298b3013cf296e06bc2169853d861469",
        "ginv": "cc418fd58ba3c8145b40911af63744eac0c86e9d8385fca25d599137f2b3303c",
        "l": "6bea3afdffa00245aac5a5bdfd64dab3cb1e90ecc79e9a96a129f1f3008d4fcd",
        "lup": "7700f9a64b48422f4c4cd9cc8de2ec94f050292600f99c9a25b9572fe21432f5",
        "h": "ee1de6190bdc143beef430807388e7eae10fe7b5d6e6da2acb3bab9b767acbaa",
        "C": "95a8a3be5032d49e169650583d76c6a40dc662e783860d1dd8150043a964f7be",
        "Cmixed": "0bcc965c62b4c178f3b20e39445a1b18299ea72b4d132a797c5108aaaabe620c",
        "gamma": "c47f1d2842735be22006dff69a04592852ebc5782500222dbce5867b8f2d9d79",
        "Gspray": "6cf463786975cc6394f1145cd21ae98a97f64d9484c1856a7406a0d9dd028219",
        "N": "6dd019c5be4e2df6bd79fae483f89accff723b88b8be84ff3841ff00b3549c1a",
        "Gberwald": "741c3a9bb4db31918fa9463d95979316292d45b84fac987ebb08508192a662c8",
        "Gamma": "0637ee18ae79d38723f6d6257ba2c74fd0ea940761b54c167d34da6edb9da5f5",
        "Rtorsion": "e4c92ebd1a46ec0163cec39ddfbc3f29131f489c29ad4dc560fc7299e68e80a1",
        "Ptorsion": "56fd4930bb75c1cdf33bdcfee3502fc4cc993aa93a9e25b68b8f64db77c5ca48",
        "R:cartan": "bb95959bd4e5dcf6d216d321cebf16323fe1335c0ce8a220d0ad890566757436",
        "R:berwald": "64b2f81894ad9f0a898c2c60dc0f068392dbc6dc4ac6ee1f5138faf1c2bd3f02",
        "R:chern": "67b0cd1599ed631e6f01d98890d7259b99a6e503c9dee553b503307efaa03487",
        "R:hashiguchi": "cd880145b877585d2dc6102164d94c62ab80cdc7339351cd9293f100f3c8efb4",
        "P:cartan": "198572278aab3b95dfea5b5045a0033a48d91702e2713f5f30573b699fed5d1f",
        "P:berwald": "81114068405854e5bd62a6688b3d05ead42910c06b628beff7f9b63cef010cfd",
        "P:chern": "2e57d504dd758fde162f20eb410f9b886fd7153318701e4d5b418e0a20bbc0f3",
        "P:hashiguchi": "23896a0a7d73d3c113dba78e65342d25a5d899ab2a6360a0cb2186a85e84bfff",
        "S:cartan": "1921e5b448c37416fc96819d9e459bff00ad229af26e28290dffb30397957ded",
        "S:hashiguchi": "ed54d07705234d68d18aa07b88d5c51b174e8b7176161e7d923dd516c5a6f2c8",
        "classify": "7111508759ca236706483b919378e625600dab2a57424c254e835eb84c3cb8fb",
    },
}


def changed_documents(name, fmt, digests):
    geom = geometry_for(name)
    assert list(digests) == registry.base_object_ids()
    changed = []
    for object_id, digest in digests.items():
        doc = cli.emit(registry.resolve(geom, object_id), fmt, geom.structure, object_id)
        if hashlib.sha256(doc.encode()).hexdigest() != digest:
            changed.append(object_id)
    return changed


@pytest.mark.parametrize("name", list(DIGESTS))
def test_json_documents_unchanged(name):
    changed = changed_documents(name, "json", DIGESTS[name])
    assert not changed, f"documents changed on {name}: {changed}"


PRINTED = {"text": TEXT_DIGESTS, "latex": LATEX_DIGESTS}


@pytest.mark.parametrize("name", list(TEXT_DIGESTS))
@pytest.mark.parametrize("fmt", list(PRINTED))
def test_printed_documents_unchanged(fmt, name):
    changed = changed_documents(name, fmt, PRINTED[fmt][name])
    assert not changed, f"{fmt} documents changed on {name}: {changed}"


# F = sqrt(y1^4 + x1*y2^4 + x2*y3^4 + x3*y1^2*y2^2): its curvatures are sums
# of products over large denominators, where a change to the gcds would show
QUARTIC_ARGS = [
    "--dim", "3", "--coords", "x1,x2,x3", "--fibers", "y1,y2,y3",
    "--metric-function", "sqrt(y1^4+x1*y2^4+x2*y3^4+x3*y1^2*y2^2)",
    "--constraints", "x1!=0,x2!=0", "--format", "json",
]
QUARTIC_DIGEST = "4e2fddcad7f504773a81828c5b1b3b7651586b19f267a7fb6f226a9ba039a882"


def test_quartic_output_unchanged():
    """What the CLI prints for all 25 ids on the 4-term quartic."""
    objects = ",".join(registry.base_object_ids())
    out = io.StringIO()
    assert cli.run(cli.build_config([*QUARTIC_ARGS, "--objects", objects]), out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == QUARTIC_DIGEST


@pytest.mark.parametrize("name", ["perturbed-flat-2d", "berwald-4d"])
def test_json_documents_independent_of_build_order(name):
    """Building the ids in reverse order fills the per-Context caches (the
    factor base, its gcd memo, the derivative cache) in another order; no
    document may show it."""
    ids = registry.base_object_ids()
    docs = []
    for order in (ids, ids[::-1]):
        geom = build(make_structure(name))
        docs.append({})
        for object_id in order:
            tensor = registry.resolve(geom, object_id)
            docs[-1][object_id] = cli.emit(tensor, "json", geom.structure, object_id)
    forward, backward = docs
    assert [i for i in ids if forward[i] != backward[i]] == []


BERWALD_4D_ARGS = [
    "--dim", "4", "--coords", "x1,x2,x3,x4", "--fibers", "y1,y2,y3,y4",
    "--given-f", "sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))",
    "--constraints", "x1!=0,y4!=0,y1^2+y2^2+y3^2!=0", "--format", "json",
]
WORKED_3D_ARGS = [
    "--dim", "3", "--coords", "x1,x2,x3", "--fibers", "y1,y2,y3",
    "--metric-function", "x3*y1^3/y2 + y3^2",
    "--constraints", "x3!=0,y2!=0,y1^2+y3^2!=0", "--format", "json",
]


def test_documents_independent_of_earlier_runs_in_the_process():
    """Each run builds a fresh structure, whose Context starts with no
    orbit plan or other cache: berwald-4d run after itself and after
    worked-3d in one process prints what a fresh process prints."""
    objects = ["--objects", ",".join(registry.base_object_ids())]
    outs = []
    for args in (BERWALD_4D_ARGS, WORKED_3D_ARGS, BERWALD_4D_ARGS):
        out = io.StringIO()
        assert cli.run(cli.build_config(args + objects), out) == 0
        outs.append(out.getvalue().encode())
    src = str(Path(cli.__file__).resolve().parent.parent)
    fresh = subprocess.run(
        [sys.executable, "-m", "finslercalc.cli", *BERWALD_4D_ARGS, *objects],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert fresh.returncode == 0, fresh.stderr
    assert outs[2] == outs[0] == fresh.stdout
