#include "datagen/tpch_lite.h"

#include <cassert>

#include "common/string_util.h"
#include "datagen/noise.h"
#include "rules/parser.h"

namespace dcer {

namespace {
const char* kNations[] = {
    "Argentina", "Brazil",  "Canada",  "China",   "Egypt",   "Ethiopia",
    "France",    "Germany", "India",   "Ireland", "Italy",   "Japan",
    "Jordan",    "Kenya",   "Morocco", "Mozambique", "Peru", "Romania",
    "Russia",    "SaudiArabia", "UnitedKingdom", "UnitedStates", "Vietnam",
    "Algeria",   "Indonesia"};
const char* kRegions[] = {"Africa", "America", "Asia", "Europe", "MiddleEast"};
const char* kPartAdjs[] = {"burnished", "polished", "anodized", "plated",
                           "brushed"};
const char* kPartMats[] = {"steel", "brass", "copper", "nickel", "tin"};
const char* kPartTypes[] = {"bolt", "washer", "gear", "spring", "flange",
                            "bracket", "valve"};
const char* kClerkFirst[] = {"Clerk", "Agent", "Rep"};
}  // namespace

std::unique_ptr<GenDataset> MakeTpch(const TpchOptions& options) {
  auto gd = std::make_unique<GenDataset>();
  gd->name = "tpch";
  Rng rng(options.seed);
  Noiser noiser(&rng);
  Dataset& d = gd->dataset;

  size_t region = d.AddRelation(Schema("Region", {{"rkey", ValueType::kString},
                                                  {"rname", ValueType::kString}}));
  size_t nation = d.AddRelation(Schema("Nation", {{"nkey", ValueType::kString},
                                                  {"nname", ValueType::kString},
                                                  {"region", ValueType::kString}}));
  size_t supplier =
      d.AddRelation(Schema("Supplier", {{"skey", ValueType::kString},
                                        {"sname", ValueType::kString},
                                        {"nation", ValueType::kString},
                                        {"phone", ValueType::kString}}));
  size_t part = d.AddRelation(Schema("Part", {{"pkey", ValueType::kString},
                                              {"pname", ValueType::kString},
                                              {"brand", ValueType::kString},
                                              {"descr", ValueType::kString}}));
  size_t partsupp =
      d.AddRelation(Schema("Partsupp", {{"pskey", ValueType::kString},
                                        {"partkey", ValueType::kString},
                                        {"suppkey", ValueType::kString},
                                        {"supplycost", ValueType::kInt}}));
  size_t customer =
      d.AddRelation(Schema("Customer", {{"ckey", ValueType::kString},
                                        {"cname", ValueType::kString},
                                        {"nation", ValueType::kString},
                                        {"addr", ValueType::kString},
                                        {"phone", ValueType::kString}}));
  size_t orders = d.AddRelation(Schema("Orders", {{"okey", ValueType::kString},
                                                  {"custkey", ValueType::kString},
                                                  {"orderdate", ValueType::kString},
                                                  {"clerk", ValueType::kString},
                                                  {"totalprice", ValueType::kInt}}));
  size_t lineitem =
      d.AddRelation(Schema("Lineitem", {{"lkey", ValueType::kString},
                                        {"orderkey", ValueType::kString},
                                        {"partkey", ValueType::kString},
                                        {"qty", ValueType::kInt}}));

  uint64_t next_entity = 0;
  std::vector<uint64_t> entity_of;
  auto append = [&](size_t rel, Row row, uint64_t entity) {
    Gid g = d.AppendTuple(rel, std::move(row));
    entity_of.resize(g + 1, GroundTruth::kNoEntity);
    entity_of[g] = entity;
    return g;
  };
  int next_key = 0;
  auto key = [&](const char* prefix) {
    return std::string(prefix) + std::to_string(next_key++);
  };

  size_t num_suppliers;
  size_t num_parts;
  size_t num_customers;
  size_t num_orders;
  if (options.scale_factor > 0) {
    // dbgen row counts (SUPPLIER 10,000*SF, PART 200,000*SF, CUSTOMER
    // 150,000*SF, ORDERS 1,500,000*SF) divided by the lite divisor 100.
    const double sf = options.scale_factor;
    num_suppliers = static_cast<size_t>(100 * sf) + 2;
    num_parts = static_cast<size_t>(2000 * sf) + 2;
    num_customers = static_cast<size_t>(1500 * sf) + 2;
    num_orders = static_cast<size_t>(15000 * sf) + 2;
  } else {
    const double sf = options.scale;
    num_suppliers = static_cast<size_t>(100 * sf) + 2;
    num_parts = static_cast<size_t>(400 * sf) + 2;
    num_customers = static_cast<size_t>(600 * sf) + 2;
    num_orders = static_cast<size_t>(1200 * sf) + 2;
  }

  // Reserve every relation at its worst case (each entity duplicated at
  // most once) so appends never reallocate a column — Relation::grow_events
  // audits this, and tests/counters_test.cc pins the sum at SF 1 to zero.
  d.ReserveTuples(region, std::size(kRegions));
  d.ReserveTuples(nation, 2 * std::size(kNations));
  d.ReserveTuples(supplier, 2 * num_suppliers);
  d.ReserveTuples(part, 2 * num_parts);
  d.ReserveTuples(partsupp, 2 * num_parts);
  d.ReserveTuples(customer, 2 * num_customers);
  d.ReserveTuples(orders, 2 * num_orders);
  d.ReserveTuples(lineitem, 2 * num_orders);

  // Regions + nations. A dup_rate slice of nations gets a typo'd duplicate
  // (the "Argenztina"/"Argwentisna" seed of Exp-1(5)).
  std::vector<std::string> region_keys;
  for (const char* rn : kRegions) {
    std::string rk = key("r");
    append(region, {Value(rk), Value(rn)}, GroundTruth::kNoEntity);
    region_keys.push_back(rk);
  }
  struct NationInfo {
    std::string nkey;      // the base tuple's key
    std::string dup_nkey;  // duplicate tuple's key; empty if none
  };
  std::vector<NationInfo> nations;
  for (const char* nname : kNations) {
    std::string nk = key("n");
    const std::string& rk = region_keys[rng.Uniform(region_keys.size())];
    uint64_t entity = next_entity++;
    append(nation, {Value(nk), Value(nname), Value(rk)}, entity);
    NationInfo info{nk, ""};
    if (rng.Bernoulli(options.dup_rate)) {
      info.dup_nkey = key("n");
      // One typo keeps even short names above the MN edit-similarity
      // threshold while staying unequal.
      append(nation,
             {Value(info.dup_nkey), Value(noiser.Typo(nname)), Value(rk)},
             entity);
    }
    nations.push_back(info);
  }

  // Suppliers; dup: same phone, perturbed name.
  struct SuppInfo {
    std::string skey;
    std::string dup_skey;
  };
  std::vector<SuppInfo> suppliers;
  for (size_t i = 0; i < num_suppliers; ++i) {
    std::string name = "Supplier#" + rng.RandomWord(5, 8);
    std::string phone = StringPrintf("%02d-%03d-%04d",
                                     static_cast<int>(rng.Uniform(34) + 10),
                                     static_cast<int>(rng.Uniform(900) + 100),
                                     static_cast<int>(rng.Uniform(10000)));
    const NationInfo& n = nations[rng.Uniform(nations.size())];
    SuppInfo info{key("s"), ""};
    uint64_t entity = next_entity++;
    append(supplier, {Value(info.skey), Value(name), Value(n.nkey),
                      Value(phone)},
           entity);
    if (rng.Bernoulli(options.dup_rate * 0.5)) {
      info.dup_skey = key("s");
      append(supplier,
             {Value(info.dup_skey), Value(noiser.Perturb(name, options.noise)),
              Value(n.nkey), Value(phone)},
             entity);
    }
    suppliers.push_back(info);
  }

  // Parts + partsupp. A dup part pair is certified by a dup supplier pair
  // with equal supplycost and an ML-similar description (rule φa).
  struct PartInfo {
    std::string pkey;
    std::string dup_pkey;
  };
  std::vector<PartInfo> parts;
  for (size_t i = 0; i < num_parts; ++i) {
    std::string pname =
        std::string(kPartAdjs[rng.Uniform(std::size(kPartAdjs))]) + " " +
        kPartMats[rng.Uniform(std::size(kPartMats))] + " " +
        kPartTypes[rng.Uniform(std::size(kPartTypes))];
    std::string brand = StringPrintf("Brand#%d",
                                     static_cast<int>(rng.Uniform(5) + 1));
    std::string descr = pname + " size " + std::to_string(rng.Uniform(50)) +
                        " grade " + rng.RandomWord(3, 5);
    PartInfo info{key("p"), ""};
    uint64_t entity = next_entity++;
    append(part, {Value(info.pkey), Value(pname), Value(brand), Value(descr)},
           entity);
    int64_t cost = 10 + static_cast<int64_t>(rng.Uniform(990));
    // Pick a supplier; prefer duplicated ones for the dup chain.
    const SuppInfo& s = suppliers[rng.Uniform(suppliers.size())];
    append(partsupp, {Value(key("ps")), Value(info.pkey), Value(s.skey),
                      Value(cost)},
           GroundTruth::kNoEntity);
    if (rng.Bernoulli(options.dup_rate * 0.5) && !s.dup_skey.empty()) {
      info.dup_pkey = key("p");
      append(part,
             {Value(info.dup_pkey), Value(pname), Value(brand),
              Value(noiser.Perturb(descr, options.noise))},
             entity);
      append(partsupp, {Value(key("ps")), Value(info.dup_pkey),
                        Value(s.dup_skey), Value(cost)},
             GroundTruth::kNoEntity);
    }
    parts.push_back(info);
  }

  // Customers; duplicates either reference the *duplicate* nation tuple
  // (recursive: needs the nation match first) or the same nation tuple.
  struct CustInfo {
    std::string ckey;
    std::string dup_ckey;
  };
  std::vector<CustInfo> custs;
  for (size_t i = 0; i < num_customers; ++i) {
    std::string name = "Customer " + rng.RandomWord(4, 7) + " " +
                       rng.RandomWord(4, 7);
    std::string addr = rng.RandomWord(6, 10) + " street " +
                       std::to_string(rng.Uniform(100));
    std::string phone = StringPrintf("%02d-%03d-%04d",
                                     static_cast<int>(rng.Uniform(34) + 10),
                                     static_cast<int>(rng.Uniform(900) + 100),
                                     static_cast<int>(rng.Uniform(10000)));
    size_t ni = rng.Uniform(nations.size());
    CustInfo info{key("c"), ""};
    uint64_t entity = next_entity++;
    append(customer, {Value(info.ckey), Value(name), Value(nations[ni].nkey),
                      Value(addr), Value(phone)},
           entity);
    if (rng.Bernoulli(options.dup_rate)) {
      bool recursive = rng.Bernoulli(options.recursion_fraction) &&
                       !nations[ni].dup_nkey.empty();
      info.dup_ckey = key("c");
      append(customer,
             {Value(info.dup_ckey), Value(name),
              Value(recursive ? nations[ni].dup_nkey : nations[ni].nkey),
              Value(noiser.Perturb(addr, options.noise)), Value(phone)},
             entity);
    }
    custs.push_back(info);
  }

  // Orders + lineitems. A dup order pair references a dup customer pair,
  // keeps date/totalprice, perturbs the clerk (ML), and buys the same part
  // (rule φb; needs the customer match — level 3 of the recursion).
  for (size_t i = 0; i < num_orders; ++i) {
    const CustInfo& c = custs[rng.Uniform(custs.size())];
    std::string date = StringPrintf("199%d-%02d-%02d",
                                    static_cast<int>(rng.Uniform(8)),
                                    static_cast<int>(rng.Uniform(12) + 1),
                                    static_cast<int>(rng.Uniform(28) + 1));
    std::string clerk =
        std::string(kClerkFirst[rng.Uniform(std::size(kClerkFirst))]) + "#" +
        rng.RandomWord(4, 6);
    int64_t total = 100 + static_cast<int64_t>(rng.Uniform(9900));
    std::string ok = key("o");
    uint64_t entity = next_entity++;
    append(orders, {Value(ok), Value(c.ckey), Value(date), Value(clerk),
                    Value(total)},
           entity);
    const PartInfo& p = parts[rng.Uniform(parts.size())];
    append(lineitem, {Value(key("l")), Value(ok), Value(p.pkey),
                      Value(static_cast<int64_t>(rng.Uniform(50) + 1))},
           GroundTruth::kNoEntity);
    if (!c.dup_ckey.empty() && rng.Bernoulli(options.dup_rate)) {
      std::string ok2 = key("o");
      append(orders,
             {Value(ok2), Value(c.dup_ckey), Value(date),
              Value(noiser.Typo(clerk)), Value(total)},
             entity);
      append(lineitem, {Value(key("l")), Value(ok2), Value(p.pkey),
                        Value(static_cast<int64_t>(rng.Uniform(50) + 1))},
             GroundTruth::kNoEntity);
    }
  }

  gd->truth.Resize(d.num_tuples());
  for (Gid g = 0; g < entity_of.size(); ++g) {
    if (entity_of[g] != GroundTruth::kNoEntity) {
      gd->truth.SetEntity(g, entity_of[g]);
    }
  }

  gd->registry.Register(std::make_unique<EditSimilarityClassifier>("MN", 0.70));
  gd->registry.Register(std::make_unique<EditSimilarityClassifier>("MS", 0.55));
  gd->registry.Register(std::make_unique<EmbeddingCosineClassifier>("MC", 0.60));
  gd->registry.Register(std::make_unique<EmbeddingCosineClassifier>("MP", 0.72));
  gd->registry.Register(std::make_unique<EditSimilarityClassifier>("MO", 0.75));

  const char* kRules =
      // Level 1: typo'd nation names within the same region.
      "rn: Nation(n1) ^ Nation(n2) ^ MN(n1.nname, n2.nname) ^ "
      "n1.region = n2.region -> n1.id = n2.id\n"
      // Suppliers: same phone, similar names.
      "rs: Supplier(s1) ^ Supplier(s2) ^ s1.phone = s2.phone ^ "
      "MS(s1.sname, s2.sname) -> s1.id = s2.id\n"
      // Level 2: same-name customers whose nations match (recursion).
      "rc: Customer(c1) ^ Customer(c2) ^ Nation(n1) ^ Nation(n2) ^ "
      "c1.nation = n1.nkey ^ c2.nation = n2.nkey ^ n1.id = n2.id ^ "
      "c1.cname = c2.cname ^ c1.phone = c2.phone ^ MC(c1.addr, c2.addr) -> "
      "c1.id = c2.id\n"
      // φa: parts sharing a (matched) supplier and supply cost, with
      // ML-similar descriptions.
      "rp: Part(p1) ^ Part(p2) ^ Partsupp(ps1) ^ Partsupp(ps2) ^ "
      "Supplier(s1) ^ Supplier(s2) ^ ps1.partkey = p1.pkey ^ "
      "ps2.partkey = p2.pkey ^ ps1.suppkey = s1.skey ^ ps2.suppkey = s2.skey "
      "^ s1.id = s2.id ^ ps1.supplycost = ps2.supplycost ^ p1.pname = p2.pname "
      "^ MP(p1.descr, p2.descr) -> p1.id = p2.id\n"
      // φb / level 3: orders by matched customers, same date and total,
      // similar clerk, same part bought.
      "ro: Orders(o1) ^ Orders(o2) ^ Customer(c1) ^ Customer(c2) ^ "
      "Lineitem(l1) ^ Lineitem(l2) ^ o1.custkey = c1.ckey ^ "
      "o2.custkey = c2.ckey ^ o1.okey = l1.orderkey ^ o2.okey = l2.orderkey ^ "
      "c1.id = c2.id ^ o1.orderdate = o2.orderdate ^ "
      "o1.totalprice = o2.totalprice ^ l1.partkey = l2.partkey ^ "
      "MO(o1.clerk, o2.clerk) -> o1.id = o2.id\n";
  Status st = ParseRuleSet(kRules, d, gd->registry, &gd->rules);
  assert(st.ok());
  (void)st;

  RelationHint chint;
  chint.relation = customer;
  chint.compare_attrs = {1, 3, 4};  // cname, addr, phone
  chint.block_attr = 1;
  chint.sort_attr = 1;
  gd->hints.push_back(chint);
  RelationHint ohint;
  ohint.relation = orders;
  ohint.compare_attrs = {2, 3, 4};  // orderdate, clerk, totalprice
  ohint.block_attr = 2;
  ohint.sort_attr = 3;
  gd->hints.push_back(ohint);
  RelationHint phint2;
  phint2.relation = part;
  phint2.compare_attrs = {1, 3};
  phint2.block_attr = 1;
  phint2.sort_attr = 3;
  gd->hints.push_back(phint2);
  RelationHint nhint;
  nhint.relation = nation;
  nhint.compare_attrs = {1};
  nhint.block_attr = 2;
  nhint.sort_attr = 1;
  gd->hints.push_back(nhint);
  (void)region;
  return gd;
}

}  // namespace dcer
