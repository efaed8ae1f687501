"""Pinned documents: the sha256 of the ``--format json`` document of every
base object id on four standard structures.  The digests were taken before
``Poly`` switched to packed exponent keys; a change to the polynomial
layer that is meant to leave the canonical form alone must leave them
unchanged."""

import hashlib

import pytest

from conftest import geometry_for
from finslercalc import cli, registry

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


@pytest.mark.parametrize("name", list(DIGESTS))
def test_json_documents_unchanged(name):
    geom = geometry_for(name)
    assert list(DIGESTS[name]) == registry.base_object_ids()
    changed = []
    for object_id, digest in DIGESTS[name].items():
        doc = cli.emit(registry.resolve(geom, object_id), "json", geom.structure, object_id)
        if hashlib.sha256(doc.encode()).hexdigest() != digest:
            changed.append(object_id)
    assert not changed, f"documents changed on {name}: {changed}"
