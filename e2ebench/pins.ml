(* Render digests of every request a seed can produce. Generated by
   `e2e.exe --pins`; an answer that differs is a wrong answer. *)

let pins =
  [
    ("log worst exhaustive k=1000 k2=200 seed=1",
     "9ef4772f72fbcb880210fac9b700b092");
    ("cse worst exhaustive k=1000 k2=200 seed=1",
     "3649f559eadf52e330e644563143d8d5");
    ("mark1 average,average_def2 exhaustive k=100 k2=4 seed=1",
     "93977cc4f333e4d8dfd0a57f26e007f6");
    ("ex4 average,average_def2 exhaustive k=100 k2=4 seed=1",
     "47a4368f796de022dba854f5c5af9f0d");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=1",
     "873c5b7bbb313277d410b2340716ab7b");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=1",
     "ce2670edeb94150ca4a065c01a4017a2");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=2",
     "15ea76cfc7efeac137e955fba3fa5d3d");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=2",
     "80917fbbc66ecbf9ca103c53525b8554");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=3",
     "fbadaeb569902e77fb03f39e76f60169");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=3",
     "3bb44f0cc5dbe8ffce71b7787fab62a5");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=4",
     "90a97631eb30193b54734fd95b2aa8a9");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=4",
     "e87601c71a7e2a7a53c7a496ced757ad");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=5",
     "bb6cd3e78fb56f8c996e22d24a8cc1cb");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=5",
     "e87601c71a7e2a7a53c7a496ced757ad");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=6",
     "0a7a2c6bcfdee2ac759c2cff7f482026");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=6",
     "fc14f811c0ced47a4a590355ed33deb8");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=7",
     "0a7a2c6bcfdee2ac759c2cff7f482026");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=7",
     "c2c37c1a032148c8d13d19472d7c7ac9");
    ("iscas85_scale worst sampled:8000/16 k=1000 k2=200 seed=8",
     "00748158fba06a1ca46ea44967054d56");
    ("rie worst sampled:2000/16 k=1000 k2=200 seed=8",
     "80917fbbc66ecbf9ca103c53525b8554");
    ("c17 worst,average exhaustive k=1000 k2=200 seed=1",
     "fd8af950da0939e1e55cdbd21f05ced2");
    ("lion worst,average exhaustive k=1000 k2=200 seed=1",
     "eef219fc4aafd1300dbef99f4e8ba1ff");
    ("dk27 worst,average exhaustive k=1000 k2=200 seed=1",
     "5a2da87307546fc4d3e9e3e44debb2bc");
    ("ex5 worst,average exhaustive k=1000 k2=200 seed=1",
     "42d500fd828b8970da4e9c5a8a09bd3a");
    ("train4 worst,average exhaustive k=1000 k2=200 seed=1",
     "0cf0e077ff3cfd1446a96593cb8219d8");
    ("bbtas worst,average exhaustive k=1000 k2=200 seed=1",
     "96b53255b8f834640f63d1f7cad12a00");
    ("dk15 worst,average exhaustive k=1000 k2=200 seed=1",
     "f16bae503f602b2db5722429d2e662d4");
    ("dk512 worst,average exhaustive k=1000 k2=200 seed=1",
     "8886777f0603325036e015b59cd8b2ab");
    ("dk14 worst,average exhaustive k=1000 k2=200 seed=1",
     "21223793ce445a5d136e9110eeee4358");
    ("dk17 worst,average exhaustive k=1000 k2=200 seed=1",
     "9b9dd47049b70b3413bba31bc5c1b67c");
    ("firstex worst,average exhaustive k=1000 k2=200 seed=1",
     "597550f528abdf6e83c8545432a67baf");
    ("lion9 worst,average exhaustive k=1000 k2=200 seed=1",
     "136e65dc855cb990b58e96635106ee74");
    ("mc worst,average exhaustive k=1000 k2=200 seed=1",
     "435c2dfb3b689034f4928e4142127be6");
    ("modulo12 worst,average exhaustive k=1000 k2=200 seed=1",
     "f3d7d6469fd02965fa07a8c79e954c01");
    ("s8 worst,average exhaustive k=1000 k2=200 seed=1",
     "3274a52aa6c36f9660b31b2681bf05c4");
    ("tav worst,average exhaustive k=1000 k2=200 seed=1",
     "9bde6254607ec1b3a39f89f8e1ecf224");
    ("ex7 worst,average exhaustive k=1000 k2=200 seed=1",
     "433683b2f5636238cbab70b9096a6ded");
    ("train11 worst,average exhaustive k=1000 k2=200 seed=1",
     "dab318976b093e213bca332f9585adb5");
    ("beecount worst,average exhaustive k=1000 k2=200 seed=1",
     "e1ca317f93be8532b6f4606722b28560");
    ("ex2 worst,average exhaustive k=1000 k2=200 seed=1",
     "6ff9f52d0fd3b236cf0c00bac020c9b2");
    ("ex3 worst,average exhaustive k=1000 k2=200 seed=1",
     "2f2a4ec7a2e4afdfe52112f18226c6e9");
    ("ex6 worst,average exhaustive k=1000 k2=200 seed=1",
     "f54ec2532e67c4b666b5697da56d287c");
    ("mark1 worst,average exhaustive k=1000 k2=200 seed=1",
     "9e4dbc238bf0c8bede3ef7e97b439c3c");
    ("bbara worst,average exhaustive k=1000 k2=200 seed=1",
     "77cca2fd7f7f289121cb1f8c4602d066");
    ("ex4 worst,average exhaustive k=1000 k2=200 seed=1",
     "f830a44c66daf626f2b948a607cad113");
    ("opus worst,average exhaustive k=1000 k2=200 seed=1",
     "0ffd0b5d2624ed2b7145a111d20de2f1");
    ("mc worst exhaustive k=1000 k2=200 seed=1",
     "d27082b139bbd9f4f99f810984d620b0");
    ("mc average,average_def2 exhaustive k=100 k2=4 seed=1",
     "2c4adac0b05f98f7625f61d9221502c2");
    ("mc worst sampled:64/16 k=1000 k2=200 seed=1",
     "7e54cc6981f289774a936a7c68cb133c");
  ]
